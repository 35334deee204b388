// Package firing drops a Close error on purpose: TestVettoolProtocol vets it
// by explicit path (./... never matches testdata) and expects the diagnostic.
package firing

import "pangea/internal/pfs"

func drop(pf *pfs.PagedFile) {
	pf.Close()
}

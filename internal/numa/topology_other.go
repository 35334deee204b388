//go:build !linux

package numa

// Discover is the non-Linux fallback: no portable NUMA discovery, so the
// whole machine is one node and binding is a no-op.
func Discover() Topology { return singleNode{} }

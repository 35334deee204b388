// Package lockorder is lockorder analyzer testdata. The test registers
// Registry.mu -> Set.mu -> Shard.mu (ranks 20/30/60) in the order table;
// acquisitions here exercise in-order, inverted and same-rank shapes.
package lockorder

import "pangea/internal/locking"

type Registry struct {
	mu locking.RWMutex
}

type Set struct {
	mu locking.Mutex
}

type Shard struct {
	mu locking.Mutex
}

// Summary embeds Set: its promoted mu is Set.mu's lock class.
type Summary struct {
	Set
}

// --- clean shapes ---

func goodNested(r *Registry, s *Set, sh *Shard) {
	r.mu.Lock()
	s.mu.Lock()
	sh.mu.Lock()
	sh.mu.Unlock()
	s.mu.Unlock()
	r.mu.Unlock()
}

func goodSequential(r *Registry, s *Set) {
	r.mu.Lock()
	r.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
	r.mu.RLock() // re-acquiring after release is not nesting
	r.mu.RUnlock()
}

func goodDeferredUnlock(s *Set, sh *Shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh.mu.Lock()
	sh.mu.Unlock()
}

func goodBranchRelease(r *Registry, s *Set, cold bool) {
	s.mu.Lock()
	if cold {
		s.mu.Unlock()
		r.mu.Lock() // set lock released on this path before registry
		r.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// --- flagged shapes ---

func badInversion(r *Registry, s *Set) {
	s.mu.Lock()
	r.mu.Lock() // want "lock order violation: acquiring lockorder.Registry.mu\\(rank 20\\) while holding lockorder.Set.mu\\(rank 30\\)"
	r.mu.Unlock()
	s.mu.Unlock()
}

func badReadInversion(r *Registry, sh *Shard) {
	sh.mu.Lock()
	r.mu.RLock() // want "lock order violation"
	r.mu.RUnlock()
	sh.mu.Unlock()
}

func badSameRank(a, b *Set) {
	a.mu.Lock()
	b.mu.Lock() // want "lock order violation"
	b.mu.Unlock()
	a.mu.Unlock()
}

func badPromotedField(z *Summary, r *Registry) {
	z.mu.Lock()
	r.mu.Lock() // want "lock order violation: acquiring lockorder.Registry.mu\\(rank 20\\) while holding lockorder.Set.mu\\(rank 30\\)"
	r.mu.Unlock()
	z.mu.Unlock()
}

func badAfterDeferredUnlock(s *Set, r *Registry) {
	s.mu.Lock()
	defer s.mu.Unlock() // set stays held to function end
	r.mu.Lock()         // want "lock order violation"
	r.mu.Unlock()
}

func badInsideBranch(r *Registry, s *Set, cold bool) {
	s.mu.Lock()
	if cold {
		r.mu.Lock() // want "lock order violation"
		r.mu.Unlock()
	}
	s.mu.Unlock()
}

// --- suppression ---

func suppressedInversion(r *Registry, s *Set) {
	s.mu.Lock()
	//lint:ignore lockorder deliberate inversion in testdata to prove the directive works
	r.mu.Lock()
	r.mu.Unlock()
	s.mu.Unlock()
}

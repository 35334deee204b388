package placement

import (
	"fmt"
	"math/bits"

	"pangea/internal/cluster"
	"pangea/internal/core"
)

// Member is one set in a replication group: a physical organization of the
// group's objects. Part is nil for the randomly dispatched source.
type Member struct {
	Set  string
	Part *Partitioner
}

// Group is a replication group (§7): every member contains exactly the same
// objects under a different physical organization, so any member can serve
// a computation and any member can be rebuilt from the others after a node
// failure. The colliding objects — those all of whose copies happen to land
// on one node — get an extra copy, HDFS-style, in a separate safety set.
type Group struct {
	Source    string
	Members   []Member
	Colliding string // name of the colliding-object (safety) set
	// Spec is what every replica and the safety set are created from: page
	// size, page layout and columns; Name is ignored. A replica is a
	// partitioning and a layout, and recovery appends into the surviving
	// sets, so a rebuilt replica keeps its layout.
	Spec core.SetSpec

	// NumColliding counts the objects whose copies span too few nodes.
	NumColliding int64
	// Total is the object count observed while building.
	Total int64
}

// SafeGroup is a replication group hardened against R concurrent failures
// (the §7 extension): every object whose member copies span fewer than R+1
// distinct nodes gets enough extra copies in the safety set to reach R+1.
// The paper accepts the expected extra-space ratio
// 1 − k·(k−1)·…·(k−R)/k^{R+1} because analytics clusters are small.
type SafeGroup struct {
	*Group
	// R is the tolerated concurrent failure count.
	R int
	// ExtraCopies counts the object copies stored in the safety set.
	ExtraCopies int64
}

// maxNodes is the widest cluster a node mask describes.
const maxNodes = 64

// copies fills nodes[i] with the node holding member i's copy of rec in a
// k-node cluster and returns the mask of the distinct nodes.
func (g *Group) copies(rec []byte, k int, nodes []int) (mask uint64) {
	for i, m := range g.Members {
		if m.Part == nil {
			nodes[i] = RandomNode(rec, k)
		} else {
			nodes[i] = m.Part.NodeOf(rec, k)
		}
		mask |= 1 << uint(nodes[i])
	}
	return mask
}

// extraPlacement picks the nodes for the safety copies of a record whose
// member copies occupy mask, enough to reach r+1 distinct nodes: the free
// nodes met walking the cluster cyclically from the one after home, the
// record's random node. home is uniform, so the extras load every node alike.
func extraPlacement(mask uint64, home, k, r int) []int {
	need := r + 1 - bits.OnesCount64(mask)
	var out []int
	for i := 1; i <= k && len(out) < need; i++ {
		if node := (home + i) % k; mask&(1<<uint(node)) == 0 {
			out = append(out, node)
		}
	}
	return out
}

// BuildGroup is BuildSafeGroup for one node failure. A single worker is
// accepted too: with nowhere to put a second copy, its safety set stays empty.
func BuildGroup(cl *cluster.Client, addrs []string, source string, parts []*Partitioner, spec core.SetSpec) (*Group, error) {
	sg, err := buildGroup(cl, addrs, source, parts, spec, 1)
	if err != nil {
		return nil, err
	}
	return sg.Group, nil
}

// BuildSafeGroup creates one replica of a populated source set per
// partitioner, and the safety set that lets the group survive r concurrent
// node failures, each created from spec, in one pass over the source: each
// record is routed to its node in every replica and, when its copies span
// fewer than r+1 nodes, to the extraPlacement nodes of the safety set. Only then are the replicas
// registered in the manager's statistics database for query schedulers to
// choose from (§9.1.2); a failed build drops every set it created. The source
// must have been loaded with DispatchRandom: recovery re-derives each
// record's random node from its content.
func BuildSafeGroup(cl *cluster.Client, addrs []string, source string, parts []*Partitioner, spec core.SetSpec, r int) (*SafeGroup, error) {
	if k := len(addrs); r < 1 || r >= k {
		return nil, fmt.Errorf("placement: r=%d invalid for a %d-node cluster", r, k)
	}
	return buildGroup(cl, addrs, source, parts, spec, r)
}

func buildGroup(cl *cluster.Client, addrs []string, source string, parts []*Partitioner, spec core.SetSpec, r int) (sg *SafeGroup, err error) {
	k := len(addrs)
	if k > maxNodes {
		return nil, fmt.Errorf("placement: a replication group spans at most %d workers, not %d", maxNodes, k)
	}
	g := &Group{
		Source:    source,
		Colliding: fmt.Sprintf("%s:safety-r%d", source, r),
		Spec:      spec,
		Members:   []Member{{Set: source}},
	}
	for _, p := range parts {
		g.Members = append(g.Members, Member{Set: fmt.Sprintf("%s_pt_%s", source, sanitize(p.Scheme)), Part: p})
	}
	sg = &SafeGroup{Group: g, R: r}

	// senders[i] fills member i, but slot 0 — the source's — the safety set.
	var senders []*Sender
	defer func() {
		if err == nil {
			return
		}
		sg = nil
		for _, s := range senders {
			for _, addr := range addrs {
				_ = cl.DropSet(addr, s.set)
			}
		}
	}()
	for i, m := range g.Members {
		if i == 0 {
			m.Set = g.Colliding
		}
		spec.Name = m.Set
		if err := cl.CreateSetSpec(spec); err != nil {
			return nil, err
		}
		senders = append(senders, NewSender(cl, addrs, m.Set))
	}
	nodes := make([]int, len(g.Members))
	err = Stream(cl, addrs, source, func(_ int, rec []byte) error {
		g.Total++
		mask := g.copies(rec, k, nodes)
		for i := 1; i < len(nodes); i++ {
			if err := senders[i].Send(nodes[i], rec); err != nil {
				return err
			}
		}
		if bits.OnesCount64(mask) <= r {
			g.NumColliding++
		}
		for _, node := range extraPlacement(mask, nodes[0], k, r) {
			sg.ExtraCopies++
			if err := senders[0].Send(node, rec); err != nil {
				return err
			}
		}
		return nil
	})
	for _, s := range senders { // a failed build's too: nothing may be in flight when its sets are dropped
		if ferr := s.Flush(); err == nil {
			err = ferr
		}
	}
	for _, m := range g.Members[1:] {
		if err == nil {
			err = cl.RegisterReplica(source, m.Set, m.Part.Scheme)
		}
	}
	return sg, err
}

// CollidingRatio returns the fraction of objects that needed a safety copy: in
// a plain group of m+1 random organizations on k nodes, roughly k^{-m} (§7).
func (g *Group) CollidingRatio() float64 {
	if g.Total == 0 {
		return 0
	}
	return float64(g.NumColliding) / float64(g.Total)
}

// CountColliding evaluates collision counts without moving any data — used
// for the §7 colliding-object study across cluster sizes.
func CountColliding(records [][]byte, parts []*Partitioner, k int) int64 {
	g := &Group{Members: make([]Member, 1, 1+len(parts))}
	for _, p := range parts {
		g.Members = append(g.Members, Member{Part: p})
	}
	nodes := make([]int, len(g.Members))
	var n int64
	for _, rec := range records {
		if bits.OnesCount64(g.copies(rec, k, nodes)) == 1 {
			n++
		}
	}
	return n
}

// sanitize turns a scheme like "hash(l_orderkey)" into a set-name suffix.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

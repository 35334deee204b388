package placement

import (
	"fmt"

	"pangea/internal/cluster"
)

// RecoveryReport summarises one replica's recovery.
type RecoveryReport struct {
	Member        string
	FromSource    int64 // records recovered by re-partitioning surviving replicas
	FromColliding int64 // records recovered from the colliding-object set
}

// Recovered returns the total records restored for this member.
func (r RecoveryReport) Recovered() int64 { return r.FromSource + r.FromColliding }

// reassignNode maps a lost partition (or lost random placement) to a
// surviving node, round-robin over the survivors.
func reassignNode(idx int, surviving []int) int { return surviving[idx%len(surviving)] }

// Recover is RecoverMulti for a group built by BuildGroup and the one failed
// node addrs[failedIdx].
func Recover(cl *cluster.Client, addrs []string, g *Group, failedIdx int) ([]RecoveryReport, error) {
	return (&SafeGroup{Group: g, R: 1}).RecoverMulti(cl, addrs, []int{failedIdx})
}

// RecoverMulti rebuilds every member of the group after up to R concurrent
// node failures (paper §7). A member lost the records it placed on a failed
// node; its partitioner, re-run over a surviving copy, says which those are,
// and they go to the surviving nodes that take the lost partitions over.
// Every member stores the same objects, so each surviving member set is
// streamed once and a record is dispatched, to every member that lost it,
// only by the lowest-indexed member whose copy survived — no duplicates, and
// records lost in several members at once are covered. A record no member
// kept is dispatched by the first surviving node of its safety placement.
// addrs lists all the original workers, failed the indices of the lost ones.
func (sg *SafeGroup) RecoverMulti(cl *cluster.Client, addrs []string, failed []int) (reports []RecoveryReport, err error) {
	k, g := len(addrs), sg.Group
	if k > maxNodes {
		return nil, fmt.Errorf("placement: a replication group spans at most %d workers, not %d", maxNodes, k)
	}
	live := append([]string(nil), addrs...) // failed workers blanked, as Stream wants them
	for _, f := range failed {
		if f < 0 || f >= k {
			return nil, fmt.Errorf("placement: failed node %d is outside the %d-node cluster", f, k)
		}
		if live[f] == "" {
			return nil, fmt.Errorf("placement: failed node %d is listed twice", f)
		}
		live[f] = ""
	}
	if len(failed) > sg.R {
		return nil, fmt.Errorf("placement: %d failures exceed the tolerated r=%d", len(failed), sg.R)
	}
	var surviving []int
	for i, addr := range live {
		if addr != "" {
			surviving = append(surviving, i)
		}
	}
	if len(surviving) == 0 {
		return nil, fmt.Errorf("placement: no surviving nodes")
	}

	reports = make([]RecoveryReport, len(g.Members))
	senders := make([]*Sender, len(g.Members))
	for i, m := range g.Members {
		reports[i].Member = m.Set
		senders[i] = NewSender(cl, addrs, m.Set)
	}
	defer func() { // on every path out: a failed recovery leaves nothing in flight either
		for _, s := range senders {
			if ferr := s.Flush(); err == nil {
				err = ferr
			}
		}
	}()
	nodes := make([]int, len(g.Members)) // where each member placed the record in hand
	// dispatcher returns the lowest-indexed member other than ti whose copy
	// of that record survived, or -1.
	dispatcher := func(ti int) int {
		for mi, node := range nodes {
			if mi != ti && live[node] != "" {
				return mi
			}
		}
		return -1
	}
	// restore sends the record to the survivor taking over its partition in
	// member ti; the random source has none, so an unsalted hash stands in.
	restore := func(ti int, rec []byte) error {
		idx := int(fnv1a(rec) % uint64(k))
		if p := g.Members[ti].Part; p != nil {
			idx = p.PartitionOf(rec)
		}
		return senders[ti].Send(reassignNode(idx, surviving), rec)
	}

	// Surviving member copies. A member's own stream never feeds its
	// sender, and a record restored into it earlier is passed over here
	// because its original node is a failed one.
	for si, m := range g.Members {
		err := Stream(cl, live, m.Set, func(_ int, rec []byte) error {
			g.copies(rec, k, nodes)
			for ti := range g.Members {
				if live[nodes[ti]] != "" || dispatcher(ti) != si {
					continue
				}
				reports[ti].FromSource++
				if err := restore(ti, rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Safety copies of the records no member kept.
	return reports, Stream(cl, live, g.Colliding, func(at int, rec []byte) error {
		mask := g.copies(rec, k, nodes)
		if dispatcher(-1) >= 0 {
			return nil
		}
		for _, node := range extraPlacement(mask, nodes[0], k, sg.R) {
			if node == at {
				break
			}
			if live[node] != "" {
				return nil // an earlier surviving safety copy dispatches
			}
		}
		for ti := range g.Members {
			reports[ti].FromColliding++
			if err := restore(ti, rec); err != nil {
				return err
			}
		}
		return nil
	})
}

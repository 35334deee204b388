package query

import (
	"fmt"
	"sync"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/placement"
)

// Executor runs query pipelines over a Pangea deployment (Table 2:
// QueryScheduling + Pipeline). The computation processes are co-located
// with the workers, per Fig 2; each per-node pipeline therefore operates
// directly on the node's buffer pool, while cross-node movement (shuffle,
// broadcast) goes through the cluster protocol.
type Executor struct {
	Client  *cluster.Client
	Workers []*cluster.Worker
	Addrs   []string
	// Threads is the number of long-living worker threads per node.
	Threads int
}

// NewExecutor assembles an executor over co-located workers.
func NewExecutor(cl *cluster.Client, workers []*cluster.Worker, threads int) *Executor {
	addrs := make([]string, len(workers))
	for i, w := range workers {
		addrs[i] = w.Addr()
	}
	if threads < 1 {
		threads = 1
	}
	return &Executor{Client: cl, Workers: workers, Addrs: addrs, Threads: threads}
}

// Parallel runs fn on every node concurrently and returns the first error.
func (e *Executor) Parallel(fn func(node int, w *cluster.Worker) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.Workers))
	for i, w := range e.Workers {
		wg.Add(1)
		go func(i int, w *cluster.Worker) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Set returns the named locality set on one node.
func (e *Executor) Set(node int, name string) (*core.LocalitySet, error) {
	s, ok := e.Workers[node].Pool().GetSet(name)
	if !ok {
		return nil, fmt.Errorf("query: no set %q on node %d", name, node)
	}
	return s, nil
}

// ChooseReplica is the query scheduler's replica selection (§9.1.2): it
// consults the manager's statistics service for the source set's
// replication group and returns the replica registered under the wanted
// partition scheme. coPartitioned is false when no such replica exists and
// the source itself must be used (forcing a runtime repartition, the
// Spark-over-HDFS situation).
func (e *Executor) ChooseReplica(source, scheme string) (set string, coPartitioned bool) {
	group, err := e.Client.Replicas(source)
	if err != nil {
		return source, false
	}
	for _, r := range group {
		if r.Scheme == scheme {
			return r.Set, true
		}
	}
	return source, false
}

// Exchange repartitions per-node row streams onto a fresh distributed set
// keyed by key — the runtime shuffle a query needs when no co-partitioned
// replica exists. Rows are routed with the same partition->node placement
// the replicas use. On failure the set is dropped again everywhere; on
// success it is the caller's to drop.
func (e *Executor) Exchange(name string, sources func(node int) Iter, key func(Row) []byte, pageSize int64) (err error) {
	defer e.dropOnFailure(name, &err)
	if err := e.Client.CreateSet(name, pageSize, uint8(core.WriteBack)); err != nil {
		return err
	}
	part := &placement.Partitioner{
		Scheme:        "exchange",
		NumPartitions: placement.PartitionsFor(len(e.Workers)),
		Key:           key,
	}
	// One sender per source node: the nodes' scan threads share nothing.
	return e.Parallel(func(node int, w *cluster.Worker) error {
		s := placement.NewSender(e.Client, e.Addrs, name)
		err := sources(node)(func(r Row) error {
			return s.Send(part.NodeOf(r, len(e.Workers)), r)
		})
		if ferr := s.Flush(); err == nil {
			err = ferr
		}
		return err
	})
}

// Broadcast replicates the rows each node's source emits onto every node as
// a fresh local set, target — the broadcast service feeding broadcast joins.
// Like Exchange, each node's rows are read where they lie, so a source that
// filters ships only its survivors; every node's scan threads send through
// one shared sender, so sends to different nodes overlap. A failed broadcast
// leaves no target set.
func (e *Executor) Broadcast(target string, sources func(node int) Iter, pageSize int64) (err error) {
	defer e.dropOnFailure(target, &err)
	if err := e.Client.CreateSet(target, pageSize, uint8(core.WriteBack)); err != nil {
		return err
	}
	s := placement.NewSender(e.Client, e.Addrs, target)
	err = e.Parallel(func(node int, w *cluster.Worker) error {
		return sources(node)(func(r Row) error {
			for dst := range e.Addrs {
				if err := s.Send(dst, r); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if ferr := s.Flush(); err == nil {
		err = ferr
	}
	return err
}

// dropOnFailure, deferred by the operations that create a set on every node,
// removes it again if they go on to fail — a CreateSet that failed half-way
// included.
func (e *Executor) dropOnFailure(name string, err *error) {
	if *err != nil {
		e.DropEverywhere(name)
	}
}

// DropEverywhere removes a set from every node, ignoring missing-set
// errors (a node may hold no pages of a sparse set).
func (e *Executor) DropEverywhere(name string) {
	for _, addr := range e.Addrs {
		_ = e.Client.DropSet(addr, name)
	}
}

// DistributedMerge runs one partial-result producer per node in parallel
// and merges the per-node maps with combine — the cross-node final stage of
// the two-stage aggregation (Table 2: "Aggregate: final stage"), whose local
// stage is ScanSpec.AggBatches on each node.
func (e *Executor) DistributedMerge(run func(node int, w *cluster.Worker) (map[string][]byte, error), combine func(dst, src []byte)) (map[string][]byte, error) {
	perNode := make([]map[string][]byte, len(e.Workers))
	err := e.Parallel(func(node int, w *cluster.Worker) error {
		m, err := run(node, w)
		if err != nil {
			return err
		}
		perNode[node] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, p := range perNode {
		for k, v := range p {
			if old, ok := out[k]; ok {
				combine(old, v)
			} else {
				out[k] = append([]byte(nil), v...)
			}
		}
	}
	return out, nil
}

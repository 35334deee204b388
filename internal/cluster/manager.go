package cluster

import (
	"fmt"
	"net"
	"sync"

	"pangea/internal/core"
	"pangea/internal/services"
)

// Manager is Pangea's light-weight manager node (§3.3): it accepts user
// applications, maintains the worker registry, the locality set catalog and
// the statistics database that records replica groups and partition schemes
// for the data placement optimizer (§7). Compared to an HDFS name node it
// stores considerably less metadata: per-page locations live in the worker
// meta files, not here (§4).
type Manager struct {
	*server

	mu       sync.Mutex
	workers  []string
	replicas map[string][]ReplicaInfo // source set -> replica group
}

// NewManager starts a manager listening on addr.
func NewManager(addr, privateKey string) (*Manager, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &Manager{replicas: make(map[string][]ReplicaInfo)}
	m.server = newServer(ln, privateKey, m.handle, nil)
	m.start()
	return m, nil
}

// handle serves the manager's requests: the worker registry and the
// statistics database.
func (m *Manager) handle(_ *conn, msg any) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch req := msg.(type) {
	case RegisterWorkerReq:
		m.workers = append(m.workers, req.Addr)
		return RegisterWorkerResp{ID: len(m.workers) - 1}, nil
	case ListWorkersReq:
		return ListWorkersResp{Addrs: append([]string(nil), m.workers...)}, nil
	case RegisterReplicaReq:
		m.replicas[req.Source] = append(m.group(req.Source), ReplicaInfo{Set: req.Target, Scheme: req.Scheme})
		return nil, nil
	case GetReplicasReq:
		return GetReplicasResp{Replicas: append([]ReplicaInfo(nil), m.group(req.Source)...)}, nil
	}
	return nil, fmt.Errorf("manager: unexpected message %T", msg)
}

// group returns a source's replication group. The source itself is its first
// member, with its native (random-dispatch) organization, registered or not.
func (m *Manager) group(source string) []ReplicaInfo {
	if g := m.replicas[source]; len(g) > 0 {
		return g
	}
	return []ReplicaInfo{{Set: source, Scheme: "random"}}
}

// Client is an application's handle on a Pangea deployment: it talks to the
// manager for catalog and statistics queries, and to the workers for data
// operations. Bootstrapping requires the cluster's private key; a non-valid
// key causes every call to fail (§3.3).
type Client struct {
	managerAddr string
	auth        string
}

// NewClient builds a client from the manager address and the user's
// submitted private key.
func NewClient(managerAddr, privateKey string) *Client {
	return &Client{managerAddr: managerAddr, auth: AuthToken(privateKey)}
}

// RegisterWorker announces a worker to the manager and returns its index.
func (cl *Client) RegisterWorker(workerAddr string) (int, error) {
	resp, err := call[RegisterWorkerResp](cl.managerAddr, cl.auth, RegisterWorkerReq{Addr: workerAddr})
	return resp.ID, err
}

// Workers lists the registered worker addresses.
func (cl *Client) Workers() ([]string, error) {
	resp, err := call[ListWorkersResp](cl.managerAddr, cl.auth, ListWorkersReq{})
	return resp.Addrs, err
}

// CreateSet creates a locality set with the same name on every worker.
func (cl *Client) CreateSet(name string, pageSize int64, durability uint8) error {
	return cl.CreateSetSpec(core.SetSpec{Name: name, PageSize: pageSize,
		Durability: core.DurabilityType(durability)})
}

// CreateSetSpec creates a locality set on every worker from a full spec,
// carrying the admission-control fields (memory quota / fair-share weight)
// to each node's buffer pool; CreateSet is the unconstrained shorthand. A
// create that fails on one worker drops the set from the workers before it,
// where this call made it — never from the one that refused, whose set of
// that name, if it has one, is somebody else's.
func (cl *Client) CreateSetSpec(spec core.SetSpec) error {
	addrs, err := cl.Workers()
	if err != nil {
		return err
	}
	for i, a := range addrs {
		_, err := call[any](a, cl.auth, CreateSetReq{Spec: spec})
		if err != nil {
			for _, made := range addrs[:i] {
				_ = cl.DropSet(made, spec.Name) // report why the create failed, not the clean-up
			}
			return fmt.Errorf("create %q on %s: %w", spec.Name, a, err)
		}
	}
	return nil
}

// CreateSetOn creates a locality set on one worker only.
func (cl *Client) CreateSetOn(addr, name string, pageSize int64, durability uint8) error {
	_, err := call[any](addr, cl.auth, CreateSetReq{Spec: core.SetSpec{Name: name, PageSize: pageSize,
		Durability: core.DurabilityType(durability)}})
	return err
}

// AddRecords appends records to a set on one worker: it frames them into one
// run and sends that with AddFrames.
func (cl *Client) AddRecords(addr, set string, records [][]byte) error {
	var run []byte
	for _, rec := range records {
		run = services.AppendFrame(run, rec)
	}
	return cl.AddFrames(addr, set, run)
}

// AddFrames appends a run of framed records (services.AppendFrame) to a set on
// one worker. The worker refuses a malformed run whole.
func (cl *Client) AddFrames(addr, set string, frames []byte) error {
	_, err := call[any](addr, cl.auth, AddRecordsReq{Set: set, Frames: frames})
	return err
}

// FetchSet streams every record of a set on one worker to fn. rec is a slice
// of the message it came in, only valid during the call.
func (cl *Client) FetchSet(addr, set string, fn func(rec []byte) error) error {
	return exchange(addr, cl.auth, FetchSetReq{Set: set}, func(c *conn) (bool, error) {
		return replies(c, func(b RecordBatch) (bool, error) {
			return b.Last, services.WalkFrames(b.Frames, fn)
		})
	})
}

// SealSet closes the set's writer on one worker: the page it was filling is
// sealed and shrunk to its records, and no page of the set stays pinned for
// writing. A set with no writer open is left as it is.
func (cl *Client) SealSet(addr, set string) error {
	_, err := call[any](addr, cl.auth, SealSetReq{Set: set})
	return err
}

// DropSet removes a set from one worker.
func (cl *Client) DropSet(addr, set string) error {
	_, err := call[any](addr, cl.auth, DropSetReq{Set: set})
	return err
}

// SetStats returns one worker's snapshot of a set: every core.SetStats
// counter by its field name, plus the set's page and byte gauges (see
// core.LocalitySet.Snapshot). It fails if the worker has no such set.
func (cl *Client) SetStats(addr, set string) (Stats, error) {
	return call[Stats](addr, cl.auth, SetStatsReq{Set: set})
}

// NodeStats returns one worker's pool-wide snapshot: every core.PoolStats
// counter, every core.SetStats counter summed over the pool's sets (dropped
// ones included), and the allocator's shard count (see
// core.BufferPool.Snapshot).
func (cl *Client) NodeStats(addr string) (Stats, error) {
	return call[Stats](addr, cl.auth, NodeStatsReq{})
}

// RegisterReplica records target as a replica of source in the statistics
// database (§7).
func (cl *Client) RegisterReplica(source, target, scheme string) error {
	_, err := call[any](cl.managerAddr, cl.auth, RegisterReplicaReq{Source: source, Target: target, Scheme: scheme})
	return err
}

// Replicas returns the replica group of a source set. Query schedulers use
// this to choose the physical organization that co-partitions a join (§7,
// §9.1.2).
func (cl *Client) Replicas(source string) ([]ReplicaInfo, error) {
	resp, err := call[GetReplicasResp](cl.managerAddr, cl.auth, GetReplicasReq{Source: source})
	return resp.Replicas, err
}

// Package query implements the distributed relational query processor the
// paper builds on top of Pangea to run TPC-H (§9.1.2, Table 2): scan,
// filter, hash, broadcast/partitioned hash map construction, join,
// two-stage aggregation, pipelines, and query scheduling that consults the
// statistics service to pick co-partitioned replicas.
//
// There is one execution engine. A ScanSpec presents each pinned page —
// columnar or row — as a Batch of column vectors under a selection vector;
// predicates, hash joins (Join) and hash aggregation (AggBatches) narrow,
// expand and fold batches, so a whole pipeline runs over a page while it is
// pinned — the paper's pipelining of joins with other computations — and
// join maps and aggregation state live in buffer-pool pages like the data.
// Rows in their set's binary layout (Row, Iter) are what the adapter
// ScanSpec.Run hands to callers that want records: the exchange and
// broadcast data path, replica builds, k-means.
package query

// Row is one relational record in its set's binary layout.
type Row = []byte

// Iter is a push-based row stream: it calls emit for every row, stopping on
// error; emit may be called from several goroutines at once. It is what
// Executor.Exchange reads each node's source from.
type Iter func(emit func(Row) error) error

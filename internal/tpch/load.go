package tpch

import (
	"fmt"

	"pangea/internal/core"
	"pangea/internal/placement"
	"pangea/internal/query"
	"pangea/internal/services"
)

// Table names as created in the deployment.
var TableNames = []string{"lineitem", "orders", "customer", "part", "supplier", "partsupp"}

// Replica partition schemes the paper registers (§9.1.2): lineitem is
// partitioned by l_orderkey and l_partkey, orders by o_orderkey and
// o_custkey; Q17's plan additionally uses a part replica partitioned by
// p_partkey.
const (
	SchemeLOrderKey = "hash(l_orderkey)"
	SchemeLPartKey  = "hash(l_partkey)"
	SchemeOOrderKey = "hash(o_orderkey)"
	SchemeOCustKey  = "hash(o_custkey)"
	SchemePPartKey  = "hash(p_partkey)"
)

// Load creates the six TPC-H source sets across the deployment and
// dispatches the generated rows randomly — the paper's "randomly dispatched
// set" — in columnar layout with no side index. Use LoadLayout for row
// layout and EnsureLineitemZoneMaps / EnsureLineitemMicroindexes for
// indexes.
func Load(e *query.Executor, d *Data, pageSize int64) error {
	return LoadLayout(e, d, pageSize, core.LayoutColumnar)
}

// LoadLayout is Load with the page layout of all six tables chosen by the
// caller. With LayoutColumnar each set is created with its table's column
// widths from Schemas, and the workers' sequential writers transpose the
// dispatched records into columnar pages; the plans read either layout
// through the same batches.
func LoadLayout(e *query.Executor, d *Data, pageSize int64, layout core.PageLayout) error {
	for i, name := range TableNames {
		spec := core.SetSpec{Name: name, PageSize: pageSize, Durability: core.WriteBack, Layout: layout}
		if layout == core.LayoutColumnar {
			spec.Columns = services.SchemaWidths(Schemas[name])
		}
		if err := e.Client.CreateSetSpec(spec); err != nil {
			return fmt.Errorf("tpch: create %s: %w", name, err)
		}
		if err := placement.DispatchRandom(e.Client, e.Addrs, name, d.tables()[i]); err != nil {
			return fmt.Errorf("tpch: load %s: %w", name, err)
		}
	}
	return nil
}

// LineitemZoneSpec is the zone-map shape the benchmark's selective queries
// prune against: min/max over every lineitem column (the date and quantity
// ranges of Q01/Q06/Q12/Q14), plus a bloom on shipmode for Q12's equality
// disjunction.
func LineitemZoneSpec() services.ZoneMapSpec {
	return services.ZoneMapSpec{
		Schema:    LineitemSchema(),
		BloomCols: []int{LiColShipMode},
	}
}

// EnsureLineitemZoneMaps builds (or reloads from the persisted side
// object) a zone map for every node's lineitem partition — one full scan
// per partition the first time, a side-object read after.
func EnsureLineitemZoneMaps(e *query.Executor) error {
	for node := range e.Workers {
		s, err := e.Set(node, "lineitem")
		if err != nil {
			return err
		}
		if _, err := services.EnsureZoneMap(s, LineitemZoneSpec()); err != nil {
			return fmt.Errorf("tpch: zone map for lineitem on node %d: %w", node, err)
		}
	}
	return nil
}

// LineitemMicroindexSpec is the posting-list shape for the benchmark's
// equality predicates: l_shipmode, the column Q12 probes with an equality
// disjunction, is the only lineitem column queried by point value.
func LineitemMicroindexSpec() services.MicroindexSpec {
	return services.MicroindexSpec{
		Schema: LineitemSchema(),
		Cols:   []int{LiColShipMode},
	}
}

// EnsureLineitemMicroindexes builds (or reloads from the persisted side
// object) a microindex for every node's lineitem partition, mirroring
// EnsureLineitemZoneMaps.
func EnsureLineitemMicroindexes(e *query.Executor) error {
	for node := range e.Workers {
		s, err := e.Set(node, "lineitem")
		if err != nil {
			return err
		}
		if _, err := services.EnsureMicroindex(s, LineitemMicroindexSpec()); err != nil {
			return fmt.Errorf("tpch: microindex for lineitem on node %d: %w", node, err)
		}
	}
	return nil
}

// tableReplicas is one table's replica partitioners, in build order.
type tableReplicas struct {
	table string
	parts []*placement.Partitioner
}

// partitioners returns the replica partitioners for one deployment size, in
// the order the replicas are built. NumPartitions is fixed per deployment so
// that two replicas built with the same key layout are co-partitioned
// node-by-node.
func partitioners(numNodes int) []tableReplicas {
	np := placement.PartitionsFor(numNodes)
	part := func(scheme string, key placement.KeyFunc) *placement.Partitioner {
		return &placement.Partitioner{Scheme: scheme, NumPartitions: np, Key: key}
	}
	return []tableReplicas{
		{"lineitem", []*placement.Partitioner{part(SchemeLOrderKey, LOrderKey), part(SchemeLPartKey, LPartKey)}},
		{"orders", []*placement.Partitioner{part(SchemeOOrderKey, OOrderKey), part(SchemeOCustKey, OCustKey)}},
		{"part", []*placement.Partitioner{part(SchemePPartKey, PPartKey)}},
	}
}

// BuildReplicas builds and registers the paper's heterogeneous replicas, each
// in its source table's layout, and returns the replication groups.
func BuildReplicas(e *query.Executor, pageSize int64) (map[string]*placement.Group, error) {
	groups := make(map[string]*placement.Group)
	for _, tr := range partitioners(len(e.Workers)) {
		src, err := e.Set(0, tr.table)
		if err != nil {
			return nil, err
		}
		spec := core.SetSpec{PageSize: pageSize, Layout: src.Layout(), Columns: src.ColumnWidths()}
		g, err := placement.BuildGroup(e.Client, e.Addrs, tr.table, tr.parts, spec)
		if err != nil {
			return nil, fmt.Errorf("tpch: build replicas of %s: %w", tr.table, err)
		}
		groups[tr.table] = g
	}
	return groups, nil
}

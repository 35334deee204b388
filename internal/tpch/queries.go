package tpch

import (
	"fmt"
	"math"
	"sync/atomic"

	"pangea/internal/cluster"
	"pangea/internal/query"
)

// Runner executes the nine benchmark queries over a loaded deployment, each
// written once against the batch engine: predicate scans over either page
// layout, hash joins that build from and probe with batches, and per-thread
// hash aggregation merged across nodes. With UseReplicas set, the query
// scheduler consults the statistics service and picks the co-partitioned
// replica for each join, so joins pipeline locally with no repartition (the
// Pangea plan of §9.1.2). Without it, every join input is repartitioned at
// runtime through a shuffle — the plan a Spark application is forced into
// when loading from HDFS.
type Runner struct {
	E           *query.Executor
	Threads     int
	UseReplicas bool
	PageSize    int64

	seq atomic.Int64
}

// NewRunner builds a query runner.
func NewRunner(e *query.Executor, threads int, useReplicas bool) *Runner {
	if threads < 1 {
		threads = 2
	}
	return &Runner{E: e, Threads: threads, UseReplicas: useReplicas, PageSize: 256 << 10}
}

// Run dispatches a query by name.
func (r *Runner) Run(q string) (Result, error) {
	switch q {
	case "Q01":
		return r.Q01()
	case "Q02":
		return r.Q02()
	case "Q04":
		return r.Q04()
	case "Q06":
		return r.Q06()
	case "Q12":
		return r.Q12()
	case "Q13":
		return r.Q13()
	case "Q14":
		return r.Q14()
	case "Q17":
		return r.Q17()
	case "Q22":
		return r.Q22()
	}
	return nil, fmt.Errorf("tpch: unknown query %q", q)
}

// --- declarative benchmark filters -------------------------------------------
//
// The scans below express their filters in the predicate algebra, one
// definition driving the microindex lookup, the zone-map prune and the
// selection kernels.

func q01Pred() query.Predicate {
	return query.ColRange{Col: LiColShipDate, Lo: 0, Hi: uint64(Q01Cutoff) + 1}
}

func q06Pred() query.Predicate {
	return query.And{
		query.ColRange{Col: LiColShipDate, Lo: uint64(Q06Lo), Hi: uint64(Q06Hi)},
		query.ColRangeF64{Col: LiColDiscount, Lo: 0.05 - 1e-9, Hi: 0.07 + 1e-9},
		query.ColRange{Col: LiColQuantity, Lo: 0, Hi: 24},
	}
}

func q12LiPred() query.Predicate {
	return query.And{
		query.Or{
			query.ColEq{Col: LiColShipMode, V: uint64(Q12ModeA)},
			query.ColEq{Col: LiColShipMode, V: uint64(Q12ModeB)},
		},
		query.ColRange{Col: LiColReceiptDate, Lo: uint64(Q12Lo), Hi: uint64(Q12Hi)},
		late,
		query.ColLess{A: LiColShipDate, B: LiColCommitDate},
	}
}

func q14LiPred() query.Predicate {
	return query.ColRange{Col: LiColShipDate, Lo: uint64(Q14Lo), Hi: uint64(Q14Hi)}
}

func q04OrdPred() query.Predicate {
	return query.ColRange{Col: OrdColOrderDate, Lo: uint64(Q04Lo), Hi: uint64(Q04Hi)}
}

func q13OrdPred() query.Predicate {
	return query.ColEq{Col: OrdColSpecial, V: 0}
}

// q02SuppPred keeps the suppliers of Q02's region.
func q02SuppPred() query.Predicate {
	var nations query.Or
	for n := byte(0); n < NationCount; n++ {
		if NationRegion(n) == Q02Region {
			nations = append(nations, query.ColEq{Col: SuppColNationKey, V: uint64(n)})
		}
	}
	return nations
}

// q22CustPred keeps customers in the seven phone codes whose balance
// exceeds minBal.
func q22CustPred(minBal float64) query.Predicate {
	var codes query.Or
	for _, c := range Q22Codes {
		codes = append(codes, query.ColEq{Col: CustColPhoneCode, V: uint64(c)})
	}
	return query.And{codes, query.ColRangeF64{
		Col: CustColAcctBal, Lo: math.Nextafter(minBal, math.Inf(1)), Hi: math.Inf(1)}}
}

// late keeps the lineitems received after their commit date (Q04, Q12).
var late = query.ColLess{A: LiColCommitDate, B: LiColReceiptDate}

// --- plan plumbing ------------------------------------------------------------

// tempName mints a unique temp set name.
func (r *Runner) tempName(tag string) string {
	return fmt.Sprintf("tmp-%s-%d", tag, r.seq.Add(1))
}

// spec describes the scan of one node's partition of set, which holds
// table's records — a source table, one of its replicas, or a temp set it
// was exchanged or broadcast onto.
func (r *Runner) spec(node int, set, table string, pred query.Predicate) (query.ScanSpec, error) {
	s, err := r.E.Set(node, set)
	return query.ScanSpec{Set: s, Threads: r.Threads, Pred: pred, Schema: Schemas[table]}, err
}

// input resolves a join input: in replica mode the statistics service
// supplies the replica partitioned under scheme; otherwise the source,
// filtered by pred, is repartitioned at runtime onto a temp set — the
// shuffle a layered engine cannot avoid. cleanup drops any temp set.
func (r *Runner) input(table, scheme string, key func(query.Row) []byte, pred query.Predicate) (string, func(), error) {
	if r.UseReplicas {
		if set, ok := r.E.ChooseReplica(table, scheme); ok {
			return set, func() {}, nil
		}
	}
	tmp := r.tempName(table)
	if err := r.exchange(tmp, table, key, pred); err != nil {
		return "", nil, err
	}
	return tmp, func() { r.E.DropEverywhere(tmp) }, nil
}

// exchange repartitions table's rows matching pred onto the new set tmp.
func (r *Runner) exchange(tmp, table string, key func(query.Row) []byte, pred query.Predicate) error {
	return r.E.Exchange(tmp, r.rows(table, pred), key, r.PageSize)
}

// rows streams, on each node, the rows of its partition of table that match
// pred: the source of an exchange or a broadcast, filtered where it lies.
func (r *Runner) rows(table string, pred query.Predicate) func(node int) query.Iter {
	return func(node int) query.Iter {
		return func(emit func(query.Row) error) error {
			sp, err := r.spec(node, table, table, pred)
			if err != nil {
				return err
			}
			return sp.RunBatches(func(_ int, b *query.Batch) error { return query.ProjectBatch(b, emit) })
		}
	}
}

// build constructs one node's join build side from the rows of set matching
// pred that stage (nil allowed) keeps: keyCol is the join key, cols the
// columns the probe side will read. The caller must drop the returned join.
func (r *Runner) build(node int, tag, set, table string, pred query.Predicate, stage query.Stage, keyCol int, cols ...int) (*query.Join, error) {
	sp, err := r.spec(node, set, table, pred)
	if err != nil {
		return nil, err
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = Schemas[table][c].Width
	}
	j, err := query.NewJoin(r.E.Workers[node].Pool(), r.tempName(tag), r.PageSize, widths...)
	if err != nil {
		return nil, err
	}
	err = sp.RunBatches(stage.Then(func(_ int, b *query.Batch) error { return j.Add(b, keyCol, cols...) }))
	if err == nil {
		err = j.Seal()
	}
	if err != nil {
		drop(j)
		return nil, err
	}
	return j, nil
}

// drop releases a join's temp set on a cleanup path, where a failure to has
// nobody to report to.
func drop(j *query.Join) { _ = j.Drop() }

// aggregate runs one node's scan → stage → hash-aggregate pipeline.
func (r *Runner) aggregate(node int, tag, set, table string, pred query.Predicate, stage query.Stage, agg query.Agg) (map[string][]byte, error) {
	sp, err := r.spec(node, set, table, pred)
	if err != nil {
		return nil, err
	}
	return sp.AggBatches(r.E.Workers[node].Pool(), r.tempName(tag), stage, agg)
}

// marked marks the build records of j that the rows of set matching pred
// reach on keyCol, and aggregates those it marked (want) or did not — a
// semi (anti) join that built from its smaller input.
func (r *Runner) marked(node int, tag string, j *query.Join, set, table string, pred query.Predicate, keyCol int, want bool, agg query.Agg) (map[string][]byte, error) {
	sp, err := r.spec(node, set, table, pred)
	if err != nil {
		return nil, err
	}
	if err := sp.RunBatches(func(_ int, b *query.Batch) error { return j.Mark(b, keyCol) }); err != nil {
		return nil, err
	}
	return r.fold(node, tag, j, want, nil, agg)
}

// fold aggregates, through stage (nil allowed), the build records of j that
// a probe marked (want) or did not; a join never probed with Mark folds all
// of its records with want false.
func (r *Runner) fold(node int, tag string, j *query.Join, want bool, stage query.Stage, agg query.Agg) (map[string][]byte, error) {
	return query.Aggregate(r.E.Workers[node].Pool(), r.tempName(tag), 1, agg,
		func(fn func(int, *query.Batch) error) error { return j.Marked(want, stage.Then(fn)) })
}

// semi is the pipeline stage that keeps the rows with a match in j.
func semi(j *query.Join, keyCol int) query.Stage {
	return func(_ int, b *query.Batch) (*query.Batch, error) {
		return b, j.Semi(b, keyCol)
	}
}

// chain runs stages in turn, each on the batch the one before it returned.
func chain(stages ...query.Stage) query.Stage {
	return func(t int, b *query.Batch) (_ *query.Batch, err error) {
		for _, stage := range stages {
			if b, err = stage(t, b); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
}

// inner is the pipeline stage that joins each batch with j: downstream
// sees carry's columns followed by j's projected build columns, narrowed by
// filter (nil allowed).
func (r *Runner) inner(j *query.Join, keyCol int, carry []int, filter func(b *query.Batch, row int) bool) query.Stage {
	outs := make([]query.Batch, r.Threads)
	return func(t int, b *query.Batch) (*query.Batch, error) {
		out := &outs[t]
		if err := j.Inner(b, keyCol, carry, out); err != nil {
			return nil, err
		}
		if filter != nil {
			query.FilterBatch(out, filter)
		}
		return out, nil
	}
}

// --- aggregation plumbing ---------------------------------------------------

// f64s decodes a group's accumulators.
func f64s(v []byte) []float64 {
	fs := make([]float64, len(v)/8)
	for i := range fs {
		fs[i] = getF64(v[8*i:])
	}
	return fs
}

// decodeF64s converts an aggregated byte map into a Result, renaming each
// group key through name (nil keeps it).
func decodeF64s(m map[string][]byte, name func(key string) string) Result {
	out := Result{}
	for k, v := range m {
		if name != nil {
			k = name(k)
		}
		out[k] = f64s(v)
	}
	return out
}

// total is the one group of an aggregate without key columns, or n zeros if
// no row reached it.
func total(m map[string][]byte, n int) []float64 {
	if v, ok := m[""]; ok {
		return f64s(v)
	}
	return make([]float64, n)
}

// --- Q01: pricing summary report -------------------------------------------

// Q01 scans lineitem with a date filter and aggregates five metrics by
// (returnflag, linestatus). No join: both modes share the plan.
func (r *Runner) Q01() (Result, error) {
	price, disc := query.Of(LiColExtendedPrice), query.OneMinus(LiColDiscount)
	agg := query.Agg{Keys: []int{LiColReturnFlag, LiColLineStatus}, Folds: []query.Fold{
		query.Sum(LiColQuantity),
		query.Sum(LiColExtendedPrice),
		query.SumProduct(price, disc),
		query.SumProduct(price, disc, query.OnePlus(LiColTax)),
		query.Count(),
	}}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		return r.aggregate(node, "q01", "lineitem", "lineitem", q01Pred(), nil, agg)
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	return decodeF64s(m, nil), nil
}

// --- Q02: minimum cost supplier ---------------------------------------------

// Q02 broadcasts the wanted parts and the region's suppliers and builds each
// node's two dimension joins from the copies. One pass over partsupp keeps
// the offers of a wanted part by a supplier of the region in a per-node
// candidate join; the per-part minimum supply cost, merged across nodes, and
// then the offers at that minimum are folds over the candidates.
func (r *Runner) Q02() (Result, error) {
	n := len(r.E.Workers)
	wanted, supp, cands := make([]*query.Join, n), make([]*query.Join, n), make([]*query.Join, n)
	defer func() {
		for _, js := range [][]*query.Join{wanted, supp, cands} {
			for _, j := range js {
				if j != nil {
					drop(j)
				}
			}
		}
	}()
	if err := r.q02Dims(wanted, supp); err != nil {
		return nil, err
	}

	// Pass 1 builds the candidates, (ps_partkey, ps_suppkey, ps_supplycost),
	// and folds the minimum supply cost per part.
	minAgg := query.Agg{Keys: []int{0}, Folds: []query.Fold{query.Min(2)}}
	minCost, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (_ map[string][]byte, err error) {
		cands[node], err = r.build(node, "q02cand", "partsupp", "partsupp", nil,
			chain(semi(wanted[node], PsColPartKey), semi(supp[node], PsColSuppKey)),
			PsColPartKey, PsColPartKey, PsColSuppKey, PsColSupplyCost)
		if err != nil {
			return nil, err
		}
		return r.fold(node, "q02min", cands[node], false, nil, minAgg)
	}, minAgg.Combine)
	if err != nil {
		return nil, err
	}

	// Pass 2: join the candidates with the minima, keep those at the
	// minimum, join them with the region's suppliers, count them and sum
	// balances.
	sumAgg := query.Agg{Folds: []query.Fold{query.Count(), query.Sum(0)}} // s_acctbal
	m, err := r.E.DistributedMerge(func(node int, w *cluster.Worker) (map[string][]byte, error) {
		best, err := query.NewJoin(w.Pool(), r.tempName("q02best"), r.PageSize, 8)
		if err != nil {
			return nil, err
		}
		defer drop(best)
		for part, v := range minCost {
			if err := best.Insert(le.Uint64([]byte(part)), v); err != nil {
				return nil, err
			}
		}
		if err := best.Seal(); err != nil {
			return nil, err
		}
		// After the first join: ps_suppkey, ps_supplycost, minimum cost.
		atMin := r.inner(best, 0, []int{1, 2},
			func(b *query.Batch, row int) bool { return b.F64(1, row) == b.F64(2, row) })
		withSupp := r.inner(supp[node], 0, nil, nil)
		return r.fold(node, "q02", cands[node], false, chain(atMin, withSupp), sumAgg)
	}, sumAgg.Combine)
	if err != nil {
		return nil, err
	}
	return Result{"*": total(m, 2)}, nil
}

// q02Dims broadcasts the parts of Q02's size and type and the suppliers of
// its region, filtered where they lie, builds each node's joins from the
// copies — the parts' keys; the suppliers' keys and balances — and drops the
// copies.
func (r *Runner) q02Dims(wanted, supp []*query.Join) error {
	partB, suppB := r.tempName("q02part"), r.tempName("q02supp")
	if err := r.E.Broadcast(partB, r.rows("part", query.And{
		query.ColEq{Col: PartColSize, V: uint64(Q02Size)},
		query.ColEq{Col: PartColTypeSuffix, V: TypeSuffixBrass},
	}), r.PageSize); err != nil {
		return err
	}
	defer r.E.DropEverywhere(partB)
	if err := r.E.Broadcast(suppB, r.rows("supplier", q02SuppPred()), r.PageSize); err != nil {
		return err
	}
	defer r.E.DropEverywhere(suppB)
	return r.E.Parallel(func(node int, _ *cluster.Worker) (err error) {
		if wanted[node], err = r.build(node, "q02wanted", partB, "part", nil, nil, PartColPartKey); err != nil {
			return err
		}
		supp[node], err = r.build(node, "q02region", suppB, "supplier", nil, nil, SuppColSuppKey, SuppColAcctBal)
		return err
	})
}

// --- Q04: order priority checking -------------------------------------------

// Q04 semi-joins date-filtered orders with late lineitems on orderkey. The
// join builds from the orders, a small fraction of the late lineitems, with
// their priority as payload; the lineitems mark the orders they reach, and
// the marked orders are counted. With the o_orderkey/l_orderkey replicas the
// join is node-local; otherwise both inputs are repartitioned first.
func (r *Runner) Q04() (Result, error) {
	liSet, liClean, err := r.input("lineitem", SchemeLOrderKey, LOrderKey, late)
	if err != nil {
		return nil, err
	}
	defer liClean()
	ordSet, ordClean, err := r.input("orders", SchemeOOrderKey, OOrderKey, q04OrdPred())
	if err != nil {
		return nil, err
	}
	defer ordClean()

	agg := query.Agg{Keys: []int{0}, Folds: []query.Fold{query.Count()}} // o_orderpriority
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		orders, err := r.build(node, "q04orders", ordSet, "orders", q04OrdPred(), nil, OrdColOrderKey, OrdColOrderPriority)
		if err != nil {
			return nil, err
		}
		defer drop(orders)
		return r.marked(node, "q04", orders, liSet, "lineitem", late, LiColOrderKey, true, agg)
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	return decodeF64s(m, func(k string) string { return OrderPriorityName(k[0]) }), nil
}

// --- Q06: forecasting revenue change -----------------------------------------

// Q06 is a pure filter + sum over lineitem: three selection kernels narrow
// each batch (shipdate band, discount band, quantity cap), then only the
// surviving lanes' price and discount columns are touched.
func (r *Runner) Q06() (Result, error) {
	agg := query.Agg{Folds: []query.Fold{
		query.SumProduct(query.Of(LiColExtendedPrice), query.Of(LiColDiscount)),
	}}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		return r.aggregate(node, "q06", "lineitem", "lineitem", q06Pred(), nil, agg)
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	return Result{"*": total(m, 1)}, nil
}

// --- Q12: shipping modes and order priority ----------------------------------

// Q12 joins filtered lineitems with orders on orderkey and counts
// high/low-priority lines per shipmode: the lines are counted per (shipmode,
// priority), and the priorities are summed into high and low when the
// result is decoded.
func (r *Runner) Q12() (Result, error) {
	liSet, liClean, err := r.input("lineitem", SchemeLOrderKey, LOrderKey, q12LiPred())
	if err != nil {
		return nil, err
	}
	defer liClean()
	ordSet, ordClean, err := r.input("orders", SchemeOOrderKey, OOrderKey, nil)
	if err != nil {
		return nil, err
	}
	defer ordClean()

	// Joined rows are (o_orderpriority, l_shipmode).
	agg := query.Agg{Keys: []int{1, 0}, Folds: []query.Fold{query.Count()}}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		lines, err := r.build(node, "q12lines", liSet, "lineitem", q12LiPred(), nil, LiColOrderKey, LiColShipMode)
		if err != nil {
			return nil, err
		}
		defer drop(lines)
		return r.aggregate(node, "q12", ordSet, "orders", nil,
			r.inner(lines, OrdColOrderKey, []int{OrdColOrderPriority}, nil), agg)
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	out := Result{}
	for k, v := range m {
		mode := ShipModeName(k[0])
		if out[mode] == nil {
			out[mode] = make([]float64, 2)
		}
		high := 1
		if k[1] <= 1 { // priorities 0 and 1 are high
			high = 0
		}
		out[mode][high] += getF64(v)
	}
	return out, nil
}

// --- Q13: customer distribution ----------------------------------------------

// Q13 counts non-special orders per customer on the o_custkey organization,
// which puts all of a customer's orders on one node, so each node histograms
// its customers by order count and the nodes' histograms add up. A node's
// zero bucket is its customers less its customers with orders: summed, the
// customers without any.
func (r *Runner) Q13() (Result, error) {
	ordSet, ordClean, err := r.input("orders", SchemeOCustKey, OCustKey, q13OrdPred())
	if err != nil {
		return nil, err
	}
	defer ordClean()

	agg := query.Agg{Keys: []int{OrdColCustKey}, Folds: []query.Fold{query.Count()}}
	hist, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		counts, err := r.aggregate(node, "q13", ordSet, "orders", q13OrdPred(), nil, agg)
		if err != nil {
			return nil, err
		}
		sp, err := r.spec(node, "customer", "customer", nil)
		if err != nil {
			return nil, err
		}
		customers, err := sp.CountBatches(nil)
		if err != nil {
			return nil, err
		}
		// A bucket's key is its order count as a float64, a count's value.
		h := make(map[string][]byte)
		add := func(count []byte, n float64) {
			v := h[string(count)]
			if v == nil {
				v = make([]byte, 8)
				h[string(count)] = v
			}
			putF64(v, getF64(v)+n)
		}
		for _, count := range counts {
			add(count, 1)
		}
		add(make([]byte, 8), float64(customers-int64(len(counts)))) // a count of 0
		return h, nil
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	out := Result{}
	for count, v := range hist {
		if n := getF64(v); n != 0 {
			out[fmt.Sprintf("%d", int(getF64([]byte(count))))] = []float64{n}
		}
	}
	return out, nil
}

// --- Q14: promotion effect ----------------------------------------------------

// Q14 joins one ship-month of lineitem with part on partkey and computes
// the promo revenue share: revenue is summed per p_promo, and the share is
// taken when the result is decoded.
func (r *Runner) Q14() (Result, error) {
	liSet, liClean, err := r.input("lineitem", SchemeLPartKey, LPartKey, q14LiPred())
	if err != nil {
		return nil, err
	}
	defer liClean()
	partSet, partClean, err := r.input("part", SchemePPartKey, PPartKey, nil)
	if err != nil {
		return nil, err
	}
	defer partClean()

	// Joined rows are (l_extendedprice, l_discount, p_promo).
	agg := query.Agg{Keys: []int{2}, Folds: []query.Fold{query.SumProduct(query.Of(0), query.OneMinus(1))}}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		parts, err := r.build(node, "q14part", partSet, "part", nil, nil, PartColPartKey, PartColPromo)
		if err != nil {
			return nil, err
		}
		defer drop(parts)
		return r.aggregate(node, "q14", liSet, "lineitem", q14LiPred(),
			r.inner(parts, LiColPartKey, []int{LiColExtendedPrice, LiColDiscount}, nil), agg)
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	var promo, rev float64
	for k, v := range m {
		if rev += getF64(v); k[0] == 1 {
			promo = getF64(v)
		}
	}
	if rev == 0 {
		return Result{"*": {0}}, nil
	}
	return Result{"*": {100 * promo / rev}}, nil
}

// --- Q17: small-quantity-order revenue ----------------------------------------

// Q17 needs each wanted part's average lineitem quantity, which is
// node-local on the l_partkey organization: one local pass over lineitem
// keeps the wanted parts' lines in a local join, and the per-part average
// and then the small-quantity revenue are folds over those lines — no data
// movement at all in replica mode.
func (r *Runner) Q17() (Result, error) {
	liSet, liClean, err := r.input("lineitem", SchemeLPartKey, LPartKey, nil)
	if err != nil {
		return nil, err
	}
	defer liClean()
	partSet, partClean, err := r.input("part", SchemePPartKey, PPartKey, nil)
	if err != nil {
		return nil, err
	}
	defer partClean()

	// The lines are (l_partkey, l_quantity, l_extendedprice). Pass 1 folds
	// [quantity sum, line count] per part; pass 2's joined rows are
	// (l_quantity, l_extendedprice, 0.2 × the part's average quantity).
	avgAgg := query.Agg{Keys: []int{0}, Folds: []query.Fold{query.Sum(1), query.Count()}}
	sumAgg := query.Agg{Folds: []query.Fold{query.Sum(1)}}
	m, err := r.E.DistributedMerge(func(node int, w *cluster.Worker) (map[string][]byte, error) {
		// The local part filter (brand + container), keys only.
		wanted, err := r.build(node, "q17part", partSet, "part", query.And{
			query.ColEq{Col: PartColBrand, V: uint64(Q17Brand)},
			query.ColEq{Col: PartColContainer, V: uint64(Q17Container)},
		}, nil, PartColPartKey)
		if err != nil {
			return nil, err
		}
		// The one pass over lineitem (exact under partkey co-partitioning).
		lines, err := r.build(node, "q17lines", liSet, "lineitem", nil, semi(wanted, LiColPartKey),
			LiColPartKey, LiColPartKey, LiColQuantity, LiColExtendedPrice)
		drop(wanted)
		if err != nil {
			return nil, err
		}
		defer drop(lines)
		avgs, err := r.fold(node, "q17avg", lines, false, nil, avgAgg)
		if err != nil {
			return nil, err
		}
		small, err := query.NewJoin(w.Pool(), r.tempName("q17small"), r.PageSize, 8)
		if err != nil {
			return nil, err
		}
		defer drop(small)
		var limit [8]byte
		for part, v := range avgs {
			putF64(limit[:], 0.2*(getF64(v)/getF64(v[8:])))
			if err := small.Insert(le.Uint64([]byte(part)), limit[:]); err != nil {
				return nil, err
			}
		}
		if err := small.Seal(); err != nil {
			return nil, err
		}
		// Pass 2: sum prices of the wanted parts' small-quantity lines.
		return r.fold(node, "q17", lines, false,
			r.inner(small, 0, []int{1, 2},
				func(b *query.Batch, row int) bool { return float64(b.U32(0, row)) < b.F64(2, row) }),
			sumAgg)
	}, sumAgg.Combine)
	if err != nil {
		return nil, err
	}
	return Result{"*": {total(m, 1)[0] / 7.0}}, nil
}

// --- Q22: global sales opportunity ---------------------------------------------

// Q22 anti-joins qualifying customers with orders on custkey. The join
// builds from the customers, with their phone code and balance as payload;
// the orders mark the customers who bought, and the unmarked ones are
// aggregated per phone code.
func (r *Runner) Q22() (Result, error) {
	// Pass 1: average positive balance of customers in the seven codes;
	// accumulators are [count, balance sum] here and per phone code below.
	avgAgg := query.Agg{Folds: []query.Fold{query.Count(), query.Sum(CustColAcctBal)}}
	avgRaw, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		return r.aggregate(node, "q22avg", "customer", "customer", q22CustPred(0), nil, avgAgg)
	}, avgAgg.Combine)
	if err != nil {
		return nil, err
	}
	v := avgRaw[""]
	if v == nil {
		return Result{}, nil
	}
	avg := getF64(v[8:]) / getF64(v)

	// Orders organized by custkey (replica or runtime exchange).
	ordSet, ordClean, err := r.input("orders", SchemeOCustKey, OCustKey, nil)
	if err != nil {
		return nil, err
	}
	defer ordClean()
	// Customers must be co-partitioned with the orders organization; the
	// customer table has no registered replica, so both modes exchange it
	// (it is an order of magnitude smaller than orders).
	custSet := r.tempName("q22cust")
	if err := r.exchange(custSet, "customer", CCustKey, q22CustPred(avg)); err != nil {
		return nil, err
	}
	defer r.E.DropEverywhere(custSet)

	// Built rows are (c_phonecode, c_acctbal).
	agg := query.Agg{Keys: []int{0}, Folds: []query.Fold{query.Count(), query.Sum(1)}}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		custs, err := r.build(node, "q22cust", custSet, "customer", nil, nil, CustColCustKey, CustColPhoneCode, CustColAcctBal)
		if err != nil {
			return nil, err
		}
		defer drop(custs)
		return r.marked(node, "q22", custs, ordSet, "orders", nil, OrdColCustKey, false, agg)
	}, agg.Combine)
	if err != nil {
		return nil, err
	}
	return decodeF64s(m, func(k string) string { return fmt.Sprintf("%d", le.Uint16([]byte(k))) }), nil
}

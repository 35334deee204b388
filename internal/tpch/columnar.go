package tpch

import (
	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/query"
	"pangea/internal/services"
)

// Lineitem column indices into the columnar schema, in record order. The
// widths mirror the fixed offsets in schema.go exactly, so a columnar
// page's reconstructed rows are byte-identical to row-layout records and
// every row accessor keeps working through the WalkPage compatibility path.
const (
	LiColOrderKey = iota
	LiColPartKey
	LiColSuppKey
	LiColLineNumber
	LiColQuantity
	LiColExtendedPrice
	LiColDiscount
	LiColTax
	LiColReturnFlag
	LiColLineStatus
	LiColShipDate
	LiColCommitDate
	LiColReceiptDate
	LiColShipMode
	LiColShipInstruct
)

// LineitemSchema describes lineitem's fixed-width columns for
// core.SetSpec.Columns / the services columnar writer.
func LineitemSchema() []services.ColumnSpec {
	return services.MakeSchema(
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
			"l_quantity", "l_extendedprice", "l_discount", "l_tax",
			"l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
			"l_receiptdate", "l_shipmode", "l_shipinstruct"},
		[]int{8, 8, 8, 4, 4, 8, 8, 8, 1, 1, 2, 2, 2, 1, 1},
	)
}

// lineitemColumnar reports whether the deployment's lineitem sets were
// loaded columnar (Load creates the set uniformly on every node, so node 0
// speaks for all).
func (r *Runner) lineitemColumnar() bool {
	s, err := r.E.Set(0, "lineitem")
	return err == nil && s.Layout() == core.LayoutColumnar
}

// addF64s element-wise adds vectors of little-endian float64s — the batch
// specs' Combine, matching f64Spec's.
func addF64s(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		putF64(dst[i:], getF64(dst[i:])+getF64(src[i:]))
	}
}

// q01Batch is Q01 over columnar lineitem: per node, a batch pipeline
// (shipdate selection kernel → five-metric fold over selected lanes into
// per-thread partial maps), merged across nodes like any aggregate. The
// predicate is the same q01Pred the row plan uses — here it compiles to
// the selection kernels and, with zone maps on, the page prune.
func (r *Runner) q01Batch() (Result, error) {
	spec := query.BatchAggSpec{
		Key: func(b *query.Batch, row int, dst []byte) []byte {
			return append(dst, b.Byte(LiColReturnFlag, row), b.Byte(LiColLineStatus, row))
		},
		ValSize: 40,
		Accumulate: func(b *query.Batch, row int, val []byte) {
			price := b.F64(LiColExtendedPrice, row)
			disc := price * (1 - b.F64(LiColDiscount, row))
			putF64(val[0:], getF64(val[0:])+float64(b.U32(LiColQuantity, row)))
			putF64(val[8:], getF64(val[8:])+price)
			putF64(val[16:], getF64(val[16:])+disc)
			putF64(val[24:], getF64(val[24:])+disc*(1+b.F64(LiColTax, row)))
			putF64(val[32:], getF64(val[32:])+1)
		},
		Combine: addF64s,
	}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		s, err := r.E.Set(node, "lineitem")
		if err != nil {
			return nil, err
		}
		return query.ScanSpec{Set: s, Threads: r.Threads, Pred: q01Pred()}.AggBatches(nil, spec)
	}, spec.Combine)
	if err != nil {
		return nil, err
	}
	return decodeF64s(m), nil
}

// q06Batch is Q06 over columnar lineitem: three selection kernels narrow
// each batch (shipdate band, discount band, quantity cap), then only the
// surviving lanes' price and discount columns are touched.
func (r *Runner) q06Batch() (Result, error) {
	spec := query.BatchAggSpec{
		Key: func(_ *query.Batch, _ int, dst []byte) []byte {
			return append(dst, starKey...)
		},
		ValSize: 8,
		Accumulate: func(b *query.Batch, row int, val []byte) {
			putF64(val, getF64(val)+b.F64(LiColExtendedPrice, row)*b.F64(LiColDiscount, row))
		},
		Combine: addF64s,
	}
	m, err := r.E.DistributedMerge(func(node int, _ *cluster.Worker) (map[string][]byte, error) {
		s, err := r.E.Set(node, "lineitem")
		if err != nil {
			return nil, err
		}
		return query.ScanSpec{Set: s, Threads: r.Threads, Pred: q06Pred()}.AggBatches(nil, spec)
	}, spec.Combine)
	if err != nil {
		return nil, err
	}
	return decodeF64s(m), nil
}

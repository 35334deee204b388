// Package tpch implements the TPC-H substrate of the paper's distributed
// benchmark (§9.1.2): a deterministic data generator, compact fixed-layout
// binary encodings of the tables, loaders that build the heterogeneous
// replicas the paper registers (lineitem by l_orderkey and l_partkey,
// orders by o_orderkey and o_custkey, part by p_partkey), and the nine
// benchmark queries (Q01 Q02 Q04 Q06 Q12 Q13 Q14 Q17 Q22) written against
// the Pangea query processor.
//
// Rows are fixed-offset little-endian records. Text fields the queries only
// test with LIKE or IN predicates are modelled as enums or booleans carrying
// the same selectivity (documented per field), which preserves query shape
// without string parsing overhead dominating the MB-scale runs.
package tpch

import (
	"encoding/binary"
	"math"

	"pangea/internal/services"
)

// Dates are u16 days since 1992-01-01; the 7-year TPC-H date range spans
// [0, 2557).
const (
	DateEpoch   = "1992-01-01"
	DatesTotal  = 2557 // days in [1992-01-01, 1999-01-01)
	daysPerYear = 365
)

// Date constructs a day offset from a (year, month, day) in 1992..1998,
// with TPC-H-sufficient 365-day years (months of 30 days + remainder
// folded; the queries only use range comparisons, so a monotone mapping is
// all that is required).
func Date(year, month, day int) uint16 {
	return uint16((year-1992)*daysPerYear + (month-1)*30 + (day - 1))
}

// le is a shorthand for the little-endian byte order.
var le = binary.LittleEndian

func putF64(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(le.Uint64(b)) }

// Column indices into each table's schema, in record order. The widths in
// Schemas mirror the fixed offsets of the Encode methods below exactly, so a
// columnar page's reconstructed rows are byte-identical to row-layout
// records, and a row page's gathered column vectors hold what the record
// accessors read.
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

const (
	OrdColOrderKey = iota
	OrdColCustKey
	OrdColOrderStatus
	OrdColOrderDate
	OrdColOrderPriority
	OrdColTotalPrice
	OrdColSpecial
)

const (
	CustColCustKey = iota
	CustColAcctBal
	CustColPhoneCode
	CustColMktSegment
)

const (
	PartColPartKey = iota
	PartColBrand
	PartColContainer
	PartColPromo
	PartColSize
	PartColTypeSuffix
)

const (
	SuppColSuppKey = iota
	SuppColAcctBal
	SuppColNationKey
)

const (
	PsColPartKey = iota
	PsColSuppKey
	PsColSupplyCost
)

// Schemas describes every table's fixed-width columns — what the query
// plans address batches by, and what core.SetSpec.Columns / the services
// columnar writer lay a columnar set out by.
var Schemas = map[string][]services.ColumnSpec{
	"lineitem": services.MakeSchema(
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
			"l_quantity", "l_extendedprice", "l_discount", "l_tax",
			"l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
			"l_receiptdate", "l_shipmode", "l_shipinstruct"},
		[]int{8, 8, 8, 4, 4, 8, 8, 8, 1, 1, 2, 2, 2, 1, 1}),
	"orders": services.MakeSchema(
		[]string{"o_orderkey", "o_custkey", "o_orderstatus", "o_orderdate",
			"o_orderpriority", "o_totalprice", "o_special"},
		[]int{8, 8, 1, 2, 1, 8, 1}),
	"customer": services.MakeSchema(
		[]string{"c_custkey", "c_acctbal", "c_phonecode", "c_mktsegment"},
		[]int{8, 8, 2, 1}),
	"part": services.MakeSchema(
		[]string{"p_partkey", "p_brand", "p_container", "p_promo", "p_size", "p_typesuffix"},
		[]int{8, 1, 1, 1, 1, 1}),
	"supplier": services.MakeSchema(
		[]string{"s_suppkey", "s_acctbal", "s_nationkey"},
		[]int{8, 8, 1}),
	"partsupp": services.MakeSchema(
		[]string{"ps_partkey", "ps_suppkey", "ps_supplycost"},
		[]int{8, 8, 8}),
}

// LineitemSchema is Schemas["lineitem"], the one table indexed.
func LineitemSchema() []services.ColumnSpec { return Schemas["lineitem"] }

// --- lineitem ---------------------------------------------------------------

// LineitemSize is the fixed record size of the lineitem table.
const LineitemSize = 66

// Lineitem is the decoded form of one lineitem row.
type Lineitem struct {
	OrderKey      uint64
	PartKey       uint64
	SuppKey       uint64
	LineNumber    uint32
	Quantity      uint32 // 1..50
	ExtendedPrice float64
	Discount      float64 // 0.00..0.10
	Tax           float64 // 0.00..0.08
	ReturnFlag    byte    // 'R', 'A', 'N'
	LineStatus    byte    // 'O', 'F'
	ShipDate      uint16
	CommitDate    uint16
	ReceiptDate   uint16
	ShipMode      byte // enum 0..6: REG AIR, AIR, RAIL, SHIP, TRUCK, MAIL, FOB
	ShipInstruct  byte // enum 0..3: DELIVER IN PERSON, COLLECT COD, NONE, TAKE BACK RETURN
}

// Shipmode enum values used by Q12.
const (
	ShipModeRegAir = iota
	ShipModeAir
	ShipModeRail
	ShipModeShip
	ShipModeTruck
	ShipModeMail
	ShipModeFOB
	NumShipModes
)

// ShipModeName renders the enum for result rows.
func ShipModeName(m byte) string {
	return [...]string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}[m]
}

// Encode appends the row's binary form to dst (which must have LineitemSize
// free bytes starting at 0).
func (l *Lineitem) Encode(dst []byte) {
	le.PutUint64(dst[0:8], l.OrderKey)
	le.PutUint64(dst[8:16], l.PartKey)
	le.PutUint64(dst[16:24], l.SuppKey)
	le.PutUint32(dst[24:28], l.LineNumber)
	le.PutUint32(dst[28:32], l.Quantity)
	putF64(dst[32:40], l.ExtendedPrice)
	putF64(dst[40:48], l.Discount)
	putF64(dst[48:56], l.Tax)
	dst[56] = l.ReturnFlag
	dst[57] = l.LineStatus
	le.PutUint16(dst[58:60], l.ShipDate)
	le.PutUint16(dst[60:62], l.CommitDate)
	le.PutUint16(dst[62:64], l.ReceiptDate)
	dst[64] = l.ShipMode
	dst[65] = l.ShipInstruct
}

// DecodeLineitem parses a lineitem record.
func DecodeLineitem(r []byte) Lineitem {
	return Lineitem{
		OrderKey:      le.Uint64(r[0:8]),
		PartKey:       le.Uint64(r[8:16]),
		SuppKey:       le.Uint64(r[16:24]),
		LineNumber:    le.Uint32(r[24:28]),
		Quantity:      le.Uint32(r[28:32]),
		ExtendedPrice: getF64(r[32:40]),
		Discount:      getF64(r[40:48]),
		Tax:           getF64(r[48:56]),
		ReturnFlag:    r[56],
		LineStatus:    r[57],
		ShipDate:      le.Uint16(r[58:60]),
		CommitDate:    le.Uint16(r[60:62]),
		ReceiptDate:   le.Uint16(r[62:64]),
		ShipMode:      r[64],
		ShipInstruct:  r[65],
	}
}

// Key accessors for the partitioners and the exchange path.

// LOrderKey reads l_orderkey from an encoded row.
func LOrderKey(r []byte) []byte { return r[0:8] }

// LPartKey reads l_partkey from an encoded row.
func LPartKey(r []byte) []byte { return r[8:16] }

// --- orders -----------------------------------------------------------------

// OrdersSize is the fixed record size of the orders table.
const OrdersSize = 29

// Orders is the decoded form of one orders row.
type Orders struct {
	OrderKey    uint64
	CustKey     uint64
	OrderStatus byte // 'F', 'O', 'P'
	OrderDate   uint16
	// OrderPriority is 0..4 for '1-URGENT'..'5-LOW'; Q12 counts priorities
	// 0 and 1 as high.
	OrderPriority byte
	TotalPrice    float64
	// SpecialRequests models o_comment LIKE '%special%requests%' (true for
	// about 1% of orders); Q13 excludes these.
	SpecialRequests bool
}

// NumOrderPriorities is the order priority enum size.
const NumOrderPriorities = 5

// OrderPriorityName renders the enum for Q04 result rows.
func OrderPriorityName(p byte) string {
	return [...]string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}[p]
}

// Encode writes the row's binary form into dst.
func (o *Orders) Encode(dst []byte) {
	le.PutUint64(dst[0:8], o.OrderKey)
	le.PutUint64(dst[8:16], o.CustKey)
	dst[16] = o.OrderStatus
	le.PutUint16(dst[17:19], o.OrderDate)
	dst[19] = o.OrderPriority
	putF64(dst[20:28], o.TotalPrice)
	if o.SpecialRequests {
		dst[28] = 1
	} else {
		dst[28] = 0
	}
}

// DecodeOrders parses an orders record.
func DecodeOrders(r []byte) Orders {
	return Orders{
		OrderKey:        le.Uint64(r[0:8]),
		CustKey:         le.Uint64(r[8:16]),
		OrderStatus:     r[16],
		OrderDate:       le.Uint16(r[17:19]),
		OrderPriority:   r[19],
		TotalPrice:      getF64(r[20:28]),
		SpecialRequests: r[28] == 1,
	}
}

// OOrderKey reads o_orderkey from an encoded row.
func OOrderKey(r []byte) []byte { return r[0:8] }

// OCustKey reads o_custkey from an encoded row.
func OCustKey(r []byte) []byte { return r[8:16] }

// --- customer ---------------------------------------------------------------

// CustomerSize is the fixed record size of the customer table.
const CustomerSize = 19

// Customer is the decoded form of one customer row.
type Customer struct {
	CustKey uint64
	AcctBal float64
	// PhoneCode is the country code (10..34) that Q22 extracts with
	// substring(c_phone, 1, 2).
	PhoneCode  uint16
	MktSegment byte // enum 0..4
}

// Encode writes the row's binary form into dst.
func (c *Customer) Encode(dst []byte) {
	le.PutUint64(dst[0:8], c.CustKey)
	putF64(dst[8:16], c.AcctBal)
	le.PutUint16(dst[16:18], c.PhoneCode)
	dst[18] = c.MktSegment
}

// DecodeCustomer parses a customer record.
func DecodeCustomer(r []byte) Customer {
	return Customer{
		CustKey:    le.Uint64(r[0:8]),
		AcctBal:    getF64(r[8:16]),
		PhoneCode:  le.Uint16(r[16:18]),
		MktSegment: r[18],
	}
}

// CCustKey reads c_custkey from an encoded row.
func CCustKey(r []byte) []byte { return r[0:8] }

// --- part -------------------------------------------------------------------

// PartSize is the fixed record size of the part table.
const PartSize = 13

// Part is the decoded form of one part row.
type Part struct {
	PartKey uint64
	Brand   byte // 0..24 ('Brand#MN')
	// Container is 0..39; Q17 filters one container kind.
	Container byte
	// Promo models p_type LIKE 'PROMO%' (roughly 1/5 of types).
	Promo bool
	Size  byte // 1..50
	// TypeSuffix is 0..14, the third word of p_type; Q02 wants '%BRASS'
	// which is suffix index 0 here.
	TypeSuffix byte
}

// TypeSuffixBrass is the TypeSuffix value modelling '%BRASS'.
const TypeSuffixBrass = 0

// Encode writes the row's binary form into dst.
func (p *Part) Encode(dst []byte) {
	le.PutUint64(dst[0:8], p.PartKey)
	dst[8] = p.Brand
	dst[9] = p.Container
	if p.Promo {
		dst[10] = 1
	} else {
		dst[10] = 0
	}
	dst[11] = p.Size
	dst[12] = p.TypeSuffix
}

// DecodePart parses a part record.
func DecodePart(r []byte) Part {
	return Part{
		PartKey:    le.Uint64(r[0:8]),
		Brand:      r[8],
		Container:  r[9],
		Promo:      r[10] == 1,
		Size:       r[11],
		TypeSuffix: r[12],
	}
}

// PPartKey reads p_partkey from an encoded row.
func PPartKey(r []byte) []byte { return r[0:8] }

// --- supplier ---------------------------------------------------------------

// SupplierSize is the fixed record size of the supplier table.
const SupplierSize = 17

// Supplier is the decoded form of one supplier row.
type Supplier struct {
	SuppKey   uint64
	AcctBal   float64
	NationKey byte // 0..24
}

// Encode writes the row's binary form into dst.
func (s *Supplier) Encode(dst []byte) {
	le.PutUint64(dst[0:8], s.SuppKey)
	putF64(dst[8:16], s.AcctBal)
	dst[16] = s.NationKey
}

// DecodeSupplier parses a supplier record.
func DecodeSupplier(r []byte) Supplier {
	return Supplier{SuppKey: le.Uint64(r[0:8]), AcctBal: getF64(r[8:16]), NationKey: r[16]}
}

// --- partsupp ---------------------------------------------------------------

// PartSuppSize is the fixed record size of the partsupp table.
const PartSuppSize = 24

// PartSupp is the decoded form of one partsupp row.
type PartSupp struct {
	PartKey    uint64
	SuppKey    uint64
	SupplyCost float64
}

// Encode writes the row's binary form into dst.
func (ps *PartSupp) Encode(dst []byte) {
	le.PutUint64(dst[0:8], ps.PartKey)
	le.PutUint64(dst[8:16], ps.SuppKey)
	putF64(dst[16:24], ps.SupplyCost)
}

// DecodePartSupp parses a partsupp record.
func DecodePartSupp(r []byte) PartSupp {
	return PartSupp{PartKey: le.Uint64(r[0:8]), SuppKey: le.Uint64(r[8:16]), SupplyCost: getF64(r[16:24])}
}

// --- nation / region ----------------------------------------------------------

// NationCount and RegionCount are the fixed TPC-H cardinalities.
const (
	NationCount = 25
	RegionCount = 5
)

// NationRegion maps nationkey -> regionkey the way dbgen does (5 nations
// per region, round-robin).
func NationRegion(nationKey byte) byte { return nationKey % RegionCount }

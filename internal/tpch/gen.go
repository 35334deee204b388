package tpch

import "math"

// rng is a splitmix64 generator: deterministic, seedable, allocation-free.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// rangeF returns a uniform float in [lo, hi).
func (r *rng) rangeF(lo, hi float64) float64 { return lo + (hi-lo)*r.f64() }

// Data holds one generated TPC-H database in memory, encoded rows per
// table, ready for dispatch into Pangea or a baseline.
type Data struct {
	ScaleFactor float64
	Lineitem    [][]byte
	Orders      [][]byte
	Customer    [][]byte
	Part        [][]byte
	Supplier    [][]byte
	PartSupp    [][]byte
}

// Counts reports the table cardinalities.
func (d *Data) Counts() map[string]int {
	counts := make(map[string]int, len(TableNames))
	for i, t := range d.tables() {
		counts[TableNames[i]] = len(t)
	}
	return counts
}

// tables returns the six tables' records in TableNames order.
func (d *Data) tables() [][][]byte {
	return [][][]byte{d.Lineitem, d.Orders, d.Customer, d.Part, d.Supplier, d.PartSupp}
}

// TotalBytes sums the encoded sizes of every table.
func (d *Data) TotalBytes() int64 {
	var n int64
	for _, t := range d.tables() {
		for _, r := range t {
			n += int64(len(r))
		}
	}
	return n
}

// Generate builds a deterministic TPC-H database at the given scale factor
// using dbgen's cardinality ratios: SF×1.5M orders with 1–7 lineitems each,
// SF×150K customers, SF×200K parts with 4 partsupps each, SF×10K suppliers.
// Column distributions carry the selectivities the nine benchmark queries
// depend on (date ranges, discount/quantity bands, enum frequencies).
func Generate(sf float64, seed uint64) *Data {
	r := newRng(seed)
	scale := func(base int) int {
		n := int(math.Round(float64(base) * sf))
		if n < 1 {
			n = 1
		}
		return n
	}
	numOrders := scale(1_500_000)
	numCustomers := scale(150_000)
	numParts := scale(200_000)
	numSuppliers := scale(10_000)

	d := &Data{ScaleFactor: sf}

	// customer
	for i := 0; i < numCustomers; i++ {
		c := Customer{
			CustKey:    uint64(i + 1),
			AcctBal:    r.rangeF(-999.99, 9999.99),
			PhoneCode:  uint16(10 + r.intn(25)),
			MktSegment: byte(r.intn(5)),
		}
		rec := make([]byte, CustomerSize)
		c.Encode(rec)
		d.Customer = append(d.Customer, rec)
	}

	// supplier
	for i := 0; i < numSuppliers; i++ {
		s := Supplier{
			SuppKey:   uint64(i + 1),
			AcctBal:   r.rangeF(-999.99, 9999.99),
			NationKey: byte(r.intn(NationCount)),
		}
		rec := make([]byte, SupplierSize)
		s.Encode(rec)
		d.Supplier = append(d.Supplier, rec)
	}

	// part + partsupp
	for i := 0; i < numParts; i++ {
		p := Part{
			PartKey:    uint64(i + 1),
			Brand:      byte(r.intn(25)),
			Container:  byte(r.intn(40)),
			Promo:      r.intn(5) == 0,
			Size:       byte(1 + r.intn(50)),
			TypeSuffix: byte(r.intn(15)),
		}
		rec := make([]byte, PartSize)
		p.Encode(rec)
		d.Part = append(d.Part, rec)
		for j := 0; j < 4; j++ {
			ps := PartSupp{
				PartKey:    p.PartKey,
				SuppKey:    uint64(1 + (int(p.PartKey)+j*numParts/4)%numSuppliers),
				SupplyCost: r.rangeF(1, 1000),
			}
			rec := make([]byte, PartSuppSize)
			ps.Encode(rec)
			d.PartSupp = append(d.PartSupp, rec)
		}
	}

	// orders + lineitem. Order dates span the full 7-year range minus the
	// trailing 151 days dbgen reserves so lineitem dates stay in range.
	for i := 0; i < numOrders; i++ {
		orderDate := uint16(r.intn(DatesTotal - 151))
		o := Orders{
			OrderKey:        uint64(i + 1),
			CustKey:         uint64(1 + r.intn(numCustomers)),
			OrderStatus:     "FOP"[r.intn(3)],
			OrderDate:       orderDate,
			OrderPriority:   byte(r.intn(NumOrderPriorities)),
			SpecialRequests: r.intn(100) == 0,
		}
		numLines := 1 + r.intn(7)
		var total float64
		for ln := 0; ln < numLines; ln++ {
			qty := uint32(1 + r.intn(50))
			price := r.rangeF(900, 105000) * float64(qty) / 50
			ship := orderDate + uint16(1+r.intn(121))
			commit := orderDate + uint16(30+r.intn(61))
			receipt := ship + uint16(1+r.intn(30))
			l := Lineitem{
				OrderKey:      o.OrderKey,
				PartKey:       uint64(1 + r.intn(numParts)),
				SuppKey:       uint64(1 + r.intn(numSuppliers)),
				LineNumber:    uint32(ln + 1),
				Quantity:      qty,
				ExtendedPrice: price,
				Discount:      float64(r.intn(11)) / 100,
				Tax:           float64(r.intn(9)) / 100,
				ReturnFlag:    "RAN"[r.intn(3)],
				LineStatus:    "OF"[r.intn(2)],
				ShipDate:      ship,
				CommitDate:    commit,
				ReceiptDate:   receipt,
				ShipMode:      byte(r.intn(NumShipModes)),
				ShipInstruct:  byte(r.intn(4)),
			}
			total += price
			rec := make([]byte, LineitemSize)
			l.Encode(rec)
			d.Lineitem = append(d.Lineitem, rec)
		}
		o.TotalPrice = total
		rec := make([]byte, OrdersSize)
		o.Encode(rec)
		d.Orders = append(d.Orders, rec)
	}
	return d
}

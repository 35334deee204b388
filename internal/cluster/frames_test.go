package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"

	"pangea/internal/core"
	"pangea/internal/services"
)

// frames is a run of the given records.
func frames(recs ...string) []byte {
	var run []byte
	for _, rec := range recs {
		run = services.AppendFrame(run, []byte(rec))
	}
	return run
}

// fetchAll returns the set's records on one worker, in order.
func fetchAll(t *testing.T, cl *Client, addr, set string) []string {
	t.Helper()
	var got []string
	if err := cl.FetchSet(addr, set, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMalformedRunRefusedWhole: a run whose framing breaks anywhere is refused
// before its first record is appended, with the offset of the break, and the
// set is as it was. At the parent commit a batch was appended record by
// record, so what preceded a bad record stayed.
func TestMalformedRunRefusedWhole(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	addr := workers[0].Addr()
	if err := cl.CreateSet("s", 4096, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddRecords(addr, "s", [][]byte{[]byte("first"), []byte("second")}); err != nil {
		t.Fatal(err)
	}
	before, err := cl.SetStats(addr, "s")
	if err != nil {
		t.Fatal(err)
	}
	good := frames("third", "fourth") // 19 bytes: every run below breaks at offset 19
	for name, tail := range map[string][]byte{
		"a frame cut short": {9, 0, 0, 0, 'x'},
		"a zero length":     append([]byte{0, 0, 0, 0}, frames("fifth")...),
		"trailing bytes":    {1, 2},
	} {
		err := cl.AddFrames(addr, "s", append(bytes.Clone(good), tail...))
		if err == nil || !strings.Contains(err.Error(), "offset 19") {
			t.Errorf("a run with %s: err = %v, want a refusal that names offset 19", name, err)
		}
	}
	if after, err := cl.SetStats(addr, "s"); err != nil || after["NumPages"] != before["NumPages"] {
		t.Errorf("after the refused runs: %d pages (err %v), want the %d before them", after["NumPages"], err, before["NumPages"])
	}
	if got := fetchAll(t, cl, addr, "s"); fmt.Sprint(got) != "[first second]" {
		t.Errorf("after the refused runs the set holds %q, want only what was there before", got)
	}
	// A well-framed run with a record no page of the set can hold is not
	// malformed: it fails at that record, as a batch always has.
	err = cl.AddFrames(addr, "s", frames("third", strings.Repeat("x", 5000), "never"))
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("a run with a 5000-byte record for 4096-byte pages: err = %v, want the record-size refusal", err)
	}
	if got := fetchAll(t, cl, addr, "s"); fmt.Sprint(got) != "[first second third]" {
		t.Errorf("after the oversized record the set holds %q, want the records before it kept", got)
	}
}

// TestFetchSetRefusesMalformedRun: the client checks a run against its own end
// before it slices it — a worker that answers with a broken one costs the
// caller an error, not a record that reaches past the message.
func TestFetchSetRefusesMalformedRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	liar := newServer(ln, testKey, func(*conn, any) (any, error) {
		return RecordBatch{Frames: append(frames("ok"), 200, 0, 0, 0, 'x'), Last: true}, nil
	}, t.Logf)
	liar.start()
	defer checkNoGoroutines(t)
	defer liar.Close()
	err = NewClient("", testKey).FetchSet(liar.Addr(), "s", func(rec []byte) error {
		t.Errorf("the callback was shown %q of a malformed run", rec)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "offset 6") {
		t.Errorf("err = %v, want a refusal that names offset 6", err)
	}
}

// TestFetchSetEveryLayout: a fetch answers with the same records in the same
// order whatever the pages look like — sequential row pages, sent as they lie;
// columnar pages, and row pages of several regions, framed by the handler.
func TestFetchSetEveryLayout(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 4<<20)
	w := workers[0]
	var want []string
	recs := make([][]byte, 3000) // 18-byte rows: several 4096-byte pages
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%08d%02d%08d", i, i%97, 3*i))
		want = append(want, string(recs[i]))
	}
	for name, spec := range map[string]core.SetSpec{
		"row":      {Name: "row", PageSize: 4096},
		"columnar": {Name: "col", PageSize: 4096, Layout: core.LayoutColumnar, Columns: []int{8, 2, 8}},
	} {
		if err := cl.CreateSetSpec(spec); err != nil {
			t.Fatal(err)
		}
		if err := cl.AddRecords(w.Addr(), spec.Name, recs); err != nil {
			t.Fatal(err)
		}
		if got := fetchAll(t, cl, w.Addr(), spec.Name); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: fetched %d records that are not the %d added, in order", name, len(got), len(want))
		}
	}
	// A page of four regions, as the shuffle service lays them out: three
	// writer threads fill the first three, and the fourth stays empty.
	sh, err := services.NewShuffle(w.Pool(), "regions", 1, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	var bufs []*services.VirtualShuffleBuffer
	for region := 0; region < 3; region++ {
		buf := sh.Writer()[0]
		for i := 0; i < 10*(region+1); i++ {
			rec := fmt.Sprintf("region %d record %d", region, i)
			if err := buf.Add([]byte(rec)); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}
		bufs = append(bufs, buf)
	}
	if err := services.CloseWriters(bufs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fetchAll(t, cl, w.Addr(), "regions-0"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("a page of four regions: fetched %q, want %q", got, want)
	}
	// The same layout with the first region empty and the other three
	// filled, framed here: the walk must read past an empty leading region.
	if err := cl.CreateSet("lead", 4096, 0); err != nil {
		t.Fatal(err)
	}
	set, _ := w.Pool().GetSet("lead")
	p, err := set.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	page := p.Bytes()
	clear(page)
	binary.LittleEndian.PutUint32(page, 1022) // four 1022-byte regions after the 8-byte header
	want = want[:0]
	for region := 1; region < 4; region++ {
		var recs []string
		for i := 0; i < 10*region; i++ {
			recs = append(recs, fmt.Sprintf("region %d record %d", region, i))
		}
		copy(page[8+region*1022:], frames(recs...))
		want = append(want, recs...)
	}
	if err := set.Unpin(p, true); err != nil {
		t.Fatal(err)
	}
	if got := fetchAll(t, cl, w.Addr(), "lead"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("a page whose first region is empty: fetched %q, want %q", got, want)
	}
}

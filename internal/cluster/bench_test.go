package cluster

import "testing"

// The RPC core and the record path at their own layer: one loopback worker;
// a round trip with nothing to carry, and 4 MiB of 66-byte records (the
// length of the benchmark's longest lineitem rows) a call. BENCH_20.json holds
// the record path at that commit and its parent.

const benchRecordLen, benchBytes = 66, 4 << 20

func benchWorker(b *testing.B) (*Client, string) {
	l, err := StartLocal(testKey, 1, func(int) WorkerConfig {
		return WorkerConfig{Memory: 64 << 20, DiskDir: b.TempDir()}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = l.Close() })
	b.ReportAllocs()
	return l.Client, l.Addrs[0]
}

// BenchmarkCall: one Client.SetStats round trip, the smallest reply a
// worker sends that is not empty.
func BenchmarkCall(b *testing.B) {
	cl, addr := benchWorker(b)
	if err := cl.CreateSet("s", 4096, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.SetStats(addr, "s"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRecords(b *testing.B) [][]byte {
	recs := make([][]byte, benchBytes/benchRecordLen)
	for i := range recs {
		recs[i] = make([]byte, benchRecordLen)
		recs[i][0] = byte(i)
	}
	b.SetBytes(int64(len(recs)) * benchRecordLen)
	return recs
}

// BenchmarkAddRecords: Client.AddRecords into a set that is dropped and made
// again every eight calls, so the pool never spills.
func BenchmarkAddRecords(b *testing.B) {
	cl, addr := benchWorker(b)
	recs := benchRecords(b)
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			b.StopTimer()
			if i > 0 {
				if err := cl.DropSet(addr, "s"); err != nil {
					b.Fatal(err)
				}
			}
			if err := cl.CreateSet("s", 256<<10, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := cl.AddRecords(addr, "s", recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchSet: Client.FetchSet of the same 4 MiB, resident.
func BenchmarkFetchSet(b *testing.B) {
	cl, addr := benchWorker(b)
	recs := benchRecords(b)
	if err := cl.CreateSet("s", 256<<10, 0); err != nil {
		b.Fatal(err)
	}
	if err := cl.AddRecords(addr, "s", recs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		if err := cl.FetchSet(addr, "s", func(rec []byte) error { n += len(rec); return nil }); err != nil {
			b.Fatal(err)
		}
		if n != len(recs)*benchRecordLen {
			b.Fatalf("fetched %d bytes, want %d", n, len(recs)*benchRecordLen)
		}
	}
}

package smrseek_test

import (
	"fmt"
	"log"
	"net"
	"reflect"
	"sync"

	"smrseek"
	"smrseek/internal/server"
	"smrseek/internal/volume"
)

// Generate one of the paper's workloads, run the Figure 11 comparison,
// and print the seek amplification factors.
func Example_quickstart() {
	// w91 is the paper's worst case: log-structured translation nearly
	// quadruples its seeks, and 64 MB of selective caching repairs it.
	recs := smrseek.MustWorkload("w91").Generate(0.5)

	c := smrseek.Characterize(recs)
	fmt.Printf("w91: %d ops (%d reads / %d writes), %.1f GB read\n",
		c.Ops, c.ReadCount, c.WriteCount, c.ReadGB())

	cmp, err := smrseek.ComparePaper(recs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %9s %9s %9s\n", "variant", "read SAF", "write SAF", "total SAF")
	for _, v := range cmp.Variants {
		fmt.Printf("%-14s %9.2f %9.2f %9.2f\n", v.Name, v.Read, v.Write, v.Total)
	}
	// Output:
	// w91: 21500 ops (15902 reads / 5598 writes), 2.1 GB read
	// variant         read SAF write SAF total SAF
	// LS                  4.40      0.71      3.15
	// LS+defrag           1.42      0.78      1.21
	// LS+prefetch         1.61      0.68      1.30
	// LS+cache            0.76      0.58      0.70
}

// tracer builds a hand-made trace whose operations are 1 ms apart.
type tracer struct{ recs []smrseek.Record }

func (tr *tracer) emit(kind smrseek.OpKind, lba, n int64) {
	tr.recs = append(tr.recs, smrseek.Record{
		Time:   int64(len(tr.recs)) * 1_000_000,
		Kind:   kind,
		Extent: smrseek.Extent{Start: lba, Count: n},
	})
}

// The paper's §III "sequential read after random write" thought
// experiment, built by hand. A 256 MB table file receives a burst of
// small random updates (the B-tree page writes of an OLTP phase), then an
// analytics phase scans it end to end N times. Under update-in-place the
// scans are free; under log-structured translation every scan re-pays
// one seek per relocated page until a mechanism intervenes.
func Example_database() {
	const (
		tableSectors = 512 * 1024 // 256 MB table
		pageSectors  = 8          // 4 KB pages
		updates      = 2000
		scanPasses   = 5
		chunkSectors = 2048 // 1 MB scan I/Os
	)
	var tr tracer

	// Load phase: the table is written sequentially.
	for off := int64(0); off < tableSectors; off += chunkSectors {
		tr.emit(smrseek.Write, off, chunkSectors)
	}
	// OLTP phase: random page updates from a deterministic LCG.
	seed := uint64(1)
	for i := 0; i < updates; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		page := int64(seed % uint64(tableSectors/pageSectors))
		tr.emit(smrseek.Write, page*pageSectors, pageSectors)
	}
	// Analytics phase: N full sequential scans.
	for pass := 0; pass < scanPasses; pass++ {
		for off := int64(0); off < tableSectors; off += chunkSectors {
			tr.emit(smrseek.Read, off, chunkSectors)
		}
	}
	recs := tr.recs

	cmp, err := smrseek.ComparePaper(recs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d-sector table, %d random updates, %d scan passes\n",
		int64(tableSectors), updates, scanPasses)
	fmt.Printf("NoLS baseline: %d read seeks, %d write seeks\n",
		cmp.Baseline.Disk.ReadSeeks, cmp.Baseline.Disk.WriteSeeks)
	for _, v := range cmp.Variants {
		fmt.Printf("%-14s total SAF %6.2f   (read seeks %7d, cache hits %7d, defrag writebacks %5d)\n",
			v.Name, v.Total, v.Stats.Disk.ReadSeeks, v.Stats.CacheHits, v.Stats.DefragWritebacks)
	}

	// The 64 MB paper cache gets zero hits here: the scans' fragment
	// working set is the whole 256 MB table, and a sequential scan over a
	// larger-than-cache set is LRU's worst case — the same reason caching
	// is not the winner for usr_1 and src2_2 in the paper's Figure 11.
	// Size the cache past the working set and it wins outright:
	big := smrseek.CacheConfig{CapacityBytes: 512 << 20}
	cmp2, err := smrseek.Compare(recs, smrseek.Config{LogStructured: true, Cache: &big})
	if err != nil {
		log.Fatal(err)
	}
	v := cmp2.Variants[0]
	fmt.Printf("%-14s total SAF %6.2f   (read seeks %7d, cache hits %7d)  <- 512 MB cache\n",
		v.Name, v.Total, v.Stats.Disk.ReadSeeks, v.Stats.CacheHits)

	fmt.Println()
	fmt.Println("Log structuring makes each scan pass re-pay the update fragmentation.")
	fmt.Println("Defragmentation repairs it after the first pass; prefetching helps only")
	fmt.Println("where fragments are physically close; selective caching needs the fragment")
	fmt.Println("working set to fit — 64 MB thrashes on this table, 512 MB absorbs it.")
	// Output:
	// database: 524288-sector table, 2000 random updates, 5 scan passes
	// NoLS baseline: 5 read seeks, 2000 write seeks
	// LS             total SAF   9.82   (read seeks   19685, cache hits       0, defrag writebacks     0)
	// LS+defrag      total SAF   2.22   (read seeks    4188, cache hits       0, defrag writebacks   255)
	// LS+prefetch    total SAF   2.59   (read seeks    5195, cache hits       0, defrag writebacks     0)
	// LS+cache       total SAF   9.82   (read seeks   19685, cache hits       0, defrag writebacks     0)
	// LS+cache       total SAF   1.97   (read seeks    3941, cache hits   16704)  <- 512 MB cache
	//
	// Log structuring makes each scan pass re-pay the update fragmentation.
	// Defragmentation repairs it after the first pass; prefetching helps only
	// where fragments are physically close; selective caching needs the fragment
	// working set to fit — 64 MB thrashes on this table, 512 MB absorbs it.
}

// The log-friendly case the paper's introduction motivates. An ingest
// workload writes objects at scattered LBAs, and readers later fetch
// them in the order they arrived. Because the reads follow the temporal
// write order, log-structured placement turns both writes and reads
// sequential, and seek amplification drops well below 1.
func Example_archival() {
	const (
		objects    = 4000
		objSectors = 64             // 32 KB objects
		space      = int64(1) << 23 // 4 GB namespace
	)
	var tr tracer

	// Ingest: objects land wherever the allocator put them.
	seed := uint64(42)
	var order []int64
	for i := 0; i < objects; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		lba := int64(seed % uint64(space-objSectors))
		order = append(order, lba)
		tr.emit(smrseek.Write, lba, objSectors)
	}
	// Verification pass: read everything back in arrival order, twice.
	for pass := 0; pass < 2; pass++ {
		for _, lba := range order {
			tr.emit(smrseek.Read, lba, objSectors)
		}
	}

	cmp, err := smrseek.Compare(tr.recs, smrseek.Config{LogStructured: true})
	if err != nil {
		log.Fatal(err)
	}
	ls := cmp.Variants[0]
	fmt.Printf("archival ingest + temporal read-back (%d objects)\n", objects)
	fmt.Printf("NoLS: %d seeks   LS: %d seeks   total SAF = %.3f\n",
		cmp.Baseline.Disk.TotalSeeks(), ls.Stats.Disk.TotalSeeks(), ls.Total)
	if ls.Total < 1 {
		fmt.Println("log structuring REDUCED seeks: reads follow the temporal write order,")
		fmt.Println("so the log serves them almost sequentially — the paper's log-friendly case.")
	}
	// Output:
	// archival ingest + temporal read-back (4000 objects)
	// NoLS: 11999 seeks   LS: 456 seeks   total SAF = 0.038
	// log structuring REDUCED seeks: reads follow the temporal write order,
	// so the log serves them almost sequentially — the paper's log-friendly case.
}

// Sweep the knobs the paper fixes: selective cache size (64 MB in §V),
// prefetch window (look-ahead/behind) and the defragmentation gates
// (N fragments, k accesses, §IV-A).
func Example_tuning() {
	recs := smrseek.MustWorkload("w91").Generate(0.5)
	base, err := smrseek.Run(smrseek.Config{}, recs)
	if err != nil {
		log.Fatal(err)
	}
	saf := func(cfg smrseek.Config) float64 {
		st, err := smrseek.Run(cfg, recs)
		if err != nil {
			log.Fatal(err)
		}
		return float64(st.Disk.TotalSeeks()) / float64(base.Disk.TotalSeeks())
	}

	fmt.Println("cache size sweep (w91):")
	for _, mb := range []int64{1, 4, 16, 64, 256} {
		cc := smrseek.CacheConfig{CapacityBytes: mb << 20}
		fmt.Printf("  %4d MB cache: total SAF %.2f\n", mb, saf(smrseek.Config{LogStructured: true, Cache: &cc}))
	}

	fmt.Println("prefetch window sweep (w91):")
	for _, kb := range []int64{16, 64, 256, 1024} {
		pc := smrseek.PrefetchConfig{
			LookBehindSectors: kb * 2, // KB → 512-byte sectors
			LookAheadSectors:  kb * 2,
			BufferBytes:       32 << 20,
		}
		fmt.Printf("  ±%4d KB window: total SAF %.2f\n", kb, saf(smrseek.Config{LogStructured: true, Prefetch: &pc}))
	}

	fmt.Println("defrag gate sweep (w91):")
	for _, g := range []smrseek.DefragConfig{
		{MinFragments: 2, MinAccesses: 1},
		{MinFragments: 4, MinAccesses: 1},
		{MinFragments: 8, MinAccesses: 1},
		{MinFragments: 2, MinAccesses: 3},
	} {
		fmt.Printf("  N>=%d, k>=%d: total SAF %.2f\n", g.MinFragments, g.MinAccesses,
			saf(smrseek.Config{LogStructured: true, Defrag: &g}))
	}
	// Output:
	// cache size sweep (w91):
	//      1 MB cache: total SAF 2.87
	//      4 MB cache: total SAF 2.47
	//     16 MB cache: total SAF 1.68
	//     64 MB cache: total SAF 0.70
	//    256 MB cache: total SAF 0.70
	// prefetch window sweep (w91):
	//   ±  16 KB window: total SAF 1.06
	//   ±  64 KB window: total SAF 1.45
	//   ± 256 KB window: total SAF 1.30
	//   ±1024 KB window: total SAF 1.30
	// defrag gate sweep (w91):
	//   N>=2, k>=1: total SAF 1.21
	//   N>=4, k>=1: total SAF 1.63
	//   N>=8, k>=1: total SAF 2.15
	//   N>=2, k>=3: total SAF 1.33
}

// The trade-off §II describes between the two ways to build an SMR
// translation layer. An OLTP-style workload (4 KB updates over a 24 MB
// table, plus point reads) runs against the paper's infinite log, a
// finite log with greedy and cost-benefit segment cleaning at tight
// over-provisioning, and the media cache drive-managed SMR devices ship,
// modelled by the banded device. The logs pay read seeks; the media
// cache pays write amplification.
func Example_cleaning() {
	const table = 48 * 1024 // sectors
	var tr tracer
	for off := int64(0); off < table; off += 2048 {
		tr.emit(smrseek.Write, off, 2048)
	}
	seed := uint64(11)
	next := func(mod int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int64(seed % uint64(mod))
	}
	for i := 0; i < 30000; i++ {
		if i%3 == 0 {
			tr.emit(smrseek.Read, next(table-64), 64)
		} else {
			tr.emit(smrseek.Write, next(table-8), 8)
		}
	}
	recs := tr.recs

	base, err := smrseek.Run(smrseek.Config{}, recs)
	if err != nil {
		log.Fatal(err)
	}
	footprint := smrseek.WriteFootprint(recs)
	maxLBA := smrseek.MaxLBA(recs)
	const seg = 2048 // 1 MiB segments
	logSectors := ((footprint*11/10)/seg + 4) * seg

	fmt.Printf("workload: %d ops, %.1f MB footprint, log %.1f MB\n",
		len(recs), float64(footprint)*512/1e6, float64(logSectors)*512/1e6)
	fmt.Printf("%-22s %9s %9s %7s %9s\n", "layer", "read SAF", "total SAF", "WAF", "extra MB")

	show := func(label string, cfg smrseek.Config, extraSectors func() int64) {
		st, err := smrseek.Run(cfg, recs)
		if err != nil {
			log.Fatal(err)
		}
		n := int64(0)
		if extraSectors != nil {
			n = extraSectors()
		}
		waf := st.WAF
		if cfg.Device != nil {
			waf = st.Cleaning.WriteAmp()
		}
		fmt.Printf("%-22s %9.2f %9.2f %7.2f %9.1f\n", label,
			float64(st.Disk.ReadSeeks)/float64(base.Disk.ReadSeeks),
			float64(st.Disk.TotalSeeks())/float64(base.Disk.TotalSeeks()),
			waf, float64(n)*512/1e6)
	}

	show("LS (infinite)", smrseek.Config{LogStructured: true}, nil)
	for _, pol := range []smrseek.GCPolicy{smrseek.Greedy, smrseek.CostBenefit} {
		layer, err := smrseek.NewGCLayer(smrseek.GCConfig{
			DeviceSectors:  maxLBA,
			LogSectors:     logSectors,
			SegmentSectors: seg,
			Policy:         pol,
		})
		if err != nil {
			log.Fatal(err)
		}
		show(layer.Name(), smrseek.Config{CustomLayer: layer}, layer.ExtraSectors)
	}

	// The media cache shipped drives use: a banded device whose 32 MiB
	// cache is one log, in front of 4 MiB bands.
	const band = 8192
	mc, err := smrseek.NewBandDevice(smrseek.BandConfig{
		BandSectors:  band,
		CacheSectors: 8 * band,
		UnitSectors:  8 * band,
		Policy:       smrseek.PolA,
	})
	if err != nil {
		log.Fatal(err)
	}
	show("MediaCache", smrseek.Config{Device: mc}, func() int64 { return mc.Cleaning().CleanWriteSectors })
	// Output:
	// workload: 30024 ops, 25.2 MB footprint, log 31.5 MB
	// layer                   read SAF total SAF     WAF  extra MB
	// LS (infinite)              11.28      4.09    1.00       0.0
	// SegLS(greedy)              11.48      4.23    1.07       7.9
	// SegLS(cost-benefit)        11.48      4.22    1.07       8.0
	// MediaCache                  8.52      3.17    1.47      50.3
}

// The trace-substitution methodology of DESIGN.md §3, closed loop: fit a
// synthetic profile to an "original" trace (a catalog workload playing a
// private production trace) and check that the regenerated stand-in
// lands in the same seek-amplification regime under every Figure 11
// variant.
func Example_fitting() {
	original := smrseek.MustWorkload("w55").Generate(0.5)

	fitted, err := smrseek.FitWorkload("w55-standin", original, 2024)
	if err != nil {
		log.Fatal(err)
	}
	standin := fitted.Generate(1.0)

	co := smrseek.Characterize(original)
	cs := smrseek.Characterize(standin)
	fmt.Printf("%-22s %12s %12s\n", "", "original", "stand-in")
	fmt.Printf("%-22s %12d %12d\n", "operations", co.Ops, cs.Ops)
	fmt.Printf("%-22s %12.2f %12.2f\n", "write intensity", co.WriteIntensity(), cs.WriteIntensity())
	fmt.Printf("%-22s %12.1f %12.1f\n", "mean write KB", co.MeanWriteKB, cs.MeanWriteKB)

	cmpO, err := smrseek.ComparePaper(original)
	if err != nil {
		log.Fatal(err)
	}
	cmpS, err := smrseek.ComparePaper(standin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-14s %12s %12s\n", "variant", "orig SAF", "stand-in SAF")
	for i, v := range cmpO.Variants {
		fmt.Printf("%-14s %12.2f %12.2f\n", v.Name, v.Total, cmpS.Variants[i].Total)
	}
	fmt.Println("\nThe stand-in is not the trace — but it amplifies where the original")
	fmt.Println("amplifies and responds to the same mechanisms, which is what a")
	fmt.Println("seek study needs from a shareable substitute.")
	// Output:
	//                            original     stand-in
	// operations                    44000        44000
	// write intensity                0.12         0.12
	// mean write KB                  17.4         15.5
	//
	// variant            orig SAF stand-in SAF
	// LS                     1.60         1.47
	// LS+defrag              1.01         1.08
	// LS+prefetch            0.88         0.85
	// LS+cache               0.79         0.84
	//
	// The stand-in is not the trace — but it amplifies where the original
	// amplifies and responds to the same mechanisms, which is what a
	// seek study needs from a shareable substitute.
}

// The smrd service stack in one process: three volumes with different
// translation-layer configurations behind one TCP endpoint, replayed by
// concurrent clients while a fourth polls stats. Each volume's
// over-the-wire statistics equal a direct in-process run of the same
// trace, because each volume's actor executes requests strictly in
// arrival order.
func Example_server() {
	recs := smrseek.MustWorkload("w91").Generate(0.02)
	frontier := smrseek.MaxLBA(recs)

	d := smrseek.DefaultDefrag()
	c := smrseek.DefaultCache()
	vols := []volume.Config{
		{Name: "plain", Sim: smrseek.Config{LogStructured: true, FrontierStart: frontier}},
		{Name: "defrag", Sim: smrseek.Config{LogStructured: true, FrontierStart: frontier, Defrag: &d}},
		{Name: "tuned", Sim: smrseek.Config{LogStructured: true, FrontierStart: frontier, Defrag: &d, Cache: &c}},
	}
	mgr, err := volume.OpenAll(vols...)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(mgr, ln, server.Options{})
	addr := srv.Addr().String()
	fmt.Printf("smrd serving %d volumes on 127.0.0.1\n\n", len(vols))

	// One client per volume plus one that only polls stats while the
	// others replay: the multi-tenant shape the volume actor exists for.
	replayed := make([]int64, len(vols))
	var wg sync.WaitGroup
	for i, v := range vols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ac, err := server.DialAsync(addr, 1)
			if err != nil {
				log.Fatal(err)
			}
			defer ac.Close()
			done := make(chan *server.Call, 1)
			for _, rec := range recs {
				if _, err := ac.SubmitStep(v.Name, rec, done); err != nil {
					log.Fatalf("%s: %v", v.Name, err)
				}
				if _, err := (<-done).Result(); err != nil {
					log.Fatalf("%s: %v", v.Name, err)
				}
				replayed[i]++
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := server.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 50; i++ {
			if _, err := cl.Stat("tuned"); err != nil {
				log.Fatal(err)
			}
		}
	}()
	wg.Wait()
	for i, v := range vols {
		fmt.Printf("client[%s]: replayed %d records over the wire\n", v.Name, replayed[i])
	}

	fmt.Println("\nvolume      frag reads   read seeks   matches direct run")
	cl, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range vols {
		wire, err := cl.Stat(v.Name)
		if err != nil {
			log.Fatal(err)
		}
		direct, err := smrseek.Run(v.Sim, recs)
		if err != nil {
			log.Fatal(err)
		}
		direct.Config = smrseek.Config{} // the server zeroes Config on the wire
		fmt.Printf("%-10s %10d %12d   %v\n",
			v.Name, wire.FragmentedReads, wire.Disk.ReadSeeks, reflect.DeepEqual(wire, direct))
	}
	cl.Close()

	// Shutdown ordering: network first, then volumes (drain and finish).
	srv.Close()
	if err := mgr.Close(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// smrd serving 3 volumes on 127.0.0.1
	//
	// client[plain]: replayed 860 records over the wire
	// client[defrag]: replayed 860 records over the wire
	// client[tuned]: replayed 860 records over the wire
	//
	// volume      frag reads   read seeks   matches direct run
	// plain              19          493   true
	// defrag             11          467   true
	// tuned              11          467   true
}

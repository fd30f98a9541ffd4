package experiments

import (
	"fmt"
	"runtime"
)

// fig3Cases are the representative contractions used for the scaling study
// (a dense-accumulator FROSTT case, a small-output FROSTT case, and the
// heaviest quantum-chemistry case).
var fig3Cases = []string{"chicago-0", "uber-02", "guanine-vvov"}

// RunFig3 reproduces paper Figure 3: strong scaling of the FaSTCC kernel
// from 1 thread up to the machine's core count. It prints the factor
// improvement over single-thread execution per thread count.
func RunFig3(cfg Config) error {
	w := cfg.writer()
	maxThreads := cfg.Threads
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	cpus := runtime.NumCPU()
	// Sweep at least to 8 workers so the scheduler's behaviour is visible
	// even on small machines; counts beyond the CPU count oversubscribe
	// and should plateau near 1.0x rather than regress.
	sweepMax := maxThreads
	if sweepMax < 8 {
		sweepMax = 8
	}
	var counts []int
	for n := 1; n <= sweepMax; n *= 2 {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != sweepMax {
		counts = append(counts, sweepMax)
	}

	fmt.Fprintf(w, "Figure 3: FaSTCC kernel speedup over 1 thread (machine has %d CPUs;\ncolumns beyond that oversubscribe and should hold ≈ flat)\n\n", cpus)
	header := []string{"contraction"}
	for _, n := range counts {
		header = append(header, fmt.Sprintf("T=%d", n))
	}
	t := newTable(header...)

	for _, id := range fig3Cases {
		cs, err := CaseByID(id)
		if err != nil {
			return err
		}
		l, r, spec, err := cs.Load(cfg)
		if err != nil {
			return err
		}
		// One untimed run at the sweep's widest thread count first, so the
		// worker pool, the accumulator freelist and the heap are warm before
		// T=1 is timed; otherwise T=1 alone pays the warm-up and every ratio
		// is inflated.
		warm := cfg
		warm.Threads = counts[len(counts)-1]
		if _, _, _, err := runFastCC(warm, l, r, spec); err != nil {
			return fmt.Errorf("%s warm-up: %w", cs.ID, err)
		}
		row := []string{cs.ID}
		base := 0.0
		for _, n := range counts {
			c := cfg
			c.Threads = n
			_, _, d, err := runFastCC(c, l, r, spec)
			if err != nil {
				return fmt.Errorf("%s T=%d: %w", cs.ID, n, err)
			}
			if n == 1 {
				base = d.Seconds()
			}
			row = append(row, fmt.Sprintf("%.2fx", base/d.Seconds()))
		}
		t.add(row...)
	}
	cfg.print(t)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Each column is T1/TN for the full FaSTCC pipeline (build + contract +")
	fmt.Fprintln(w, "drain); dynamic tile scheduling absorbs load imbalance (Section 4.2).")
	return nil
}

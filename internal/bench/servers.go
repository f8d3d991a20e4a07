package bench

import (
	"fmt"

	"dircache"
	"dircache/internal/workload"
)

// serverPair holds both systems of one A/B comparison point, baseline
// first (modes).
type serverPair [2]struct {
	sys *dircache.System
	w   *workload.Proc
}

func newServerPair(seedBase uint64) *serverPair {
	var sp serverPair
	for i := range sp {
		cfg := dircache.Baseline()
		if i == 1 {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = seedBase
		}
		sp[i].sys = dircache.New(cfg)
		sp[i].w = workload.NewProc(sp[i].sys.Start(dircache.RootCreds()))
	}
	return &sp
}

// run times one pass of each system's workload (which returns its rate)
// and records the rate under "<mode>/<size>", with the FS readdirs and FS
// lookups the pass counted under that key's "/readdir_fs" and
// "/fs_lookups"; it returns the two rates.
func (sp *serverPair) run(r *Report, size int, pass func(i int, w *workload.Proc) (float64, error)) ([2]float64, error) {
	var rates [2]float64
	for i, s := range sp {
		before := s.sys.Stats()
		v, err := pass(i, s.w)
		if err != nil {
			return rates, err
		}
		d := s.sys.Stats().Delta(before)
		rates[i] = v
		key := fmt.Sprintf("%s/%d", modes[i], size)
		r.put(key, v)
		r.put(key+"/readdir_fs", float64(d.ReaddirFS))
		r.put(key+"/fs_lookups", float64(d.FSLookups))
	}
	return rates, nil
}

// Fig10 reproduces Figure 10: Dovecot-style maildir server throughput as
// mailbox size grows, unmodified vs optimized.
func Fig10(sc Scale) (*Report, error) {
	r := newReport("fig10", "Dovecot maildir throughput (ops/sec)",
		"mailbox size", "unmod ops/s", "opt ops/s", "gain")
	for _, size := range sc.MailboxSizes {
		sp := newServerPair(0x1010)
		var boxes [2][]string
		for i, s := range sp {
			b, err := workload.GenerateMaildir(s.w.P, "/mail", sc.Mailboxes, size)
			if err != nil {
				return nil, err
			}
			boxes[i] = b
			// Warm pass.
			if _, err := workload.RunDovecot(s.w, b, sc.DovecotOps/4+1, 3); err != nil {
				return nil, err
			}
		}
		v, err := sp.run(r, size, func(i int, w *workload.Proc) (float64, error) {
			return workload.RunDovecot(w, boxes[i], sc.DovecotOps, 4)
		})
		if err != nil {
			return nil, err
		}
		r.add(fmt.Sprintf("%d", size), fmt.Sprintf("%.0f", v[0]), fmt.Sprintf("%.0f", v[1]),
			fmtGain(1/v[0], 1/v[1])) // gain in time-per-op
	}
	r.note("paper: +7.8%% to +12.2%%, larger boxes gain more (readdir caching)")
	return r, nil
}

// Table3 reproduces Table 3: Apache-style generated directory listing
// throughput over directory size.
func Table3(sc Scale) (*Report, error) {
	r := newReport("table3", "Apache directory listing throughput (req/s)",
		"# of files", "unmod req/s", "opt req/s", "gain")
	for _, size := range sc.DirSizes {
		sp := newServerPair(0x3333)
		for _, s := range sp {
			if err := s.w.P.Mkdir("/www", 0o755); err != nil {
				return nil, err
			}
			for i := 0; i < size; i++ {
				if err := s.w.P.WriteFile(fmt.Sprintf("/www/page%06d.html", i), []byte("<html>"), 0o644); err != nil {
					return nil, err
				}
			}
			// Warm pass.
			if _, err := workload.RunApacheBench(s.w, "/www", 8); err != nil {
				return nil, err
			}
		}
		n := sc.WebRequests
		if size >= 1000 && n > 200 {
			n = 200 // large listings are slow; fewer requests suffice
		}
		v, err := sp.run(r, size, func(_ int, w *workload.Proc) (float64, error) {
			return workload.RunApacheBench(w, "/www", n)
		})
		if err != nil {
			return nil, err
		}
		r.put(fmt.Sprintf("requests/%d", size), float64(n))
		r.add(fmt.Sprintf("%d", size), fmt.Sprintf("%.0f", v[0]), fmt.Sprintf("%.0f", v[1]),
			fmtGain(1/v[0], 1/v[1]))
	}
	r.note("paper: +5.9%% to +12.2%% across 10..10k files")
	return r, nil
}

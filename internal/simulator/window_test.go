package simulator

import "testing"

func TestWindowConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.WindowCycles = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative WindowCycles accepted")
	}
	cfg = smallConfig()
	cfg.CollusionStartCycle = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative CollusionStartCycle accepted")
	}
	cfg = smallConfig()
	cfg.CollusionStartCycle = cfg.SimCycles + 5
	if _, err := Run(cfg); err == nil {
		t.Error("CollusionStartCycle beyond run accepted")
	}
}

func TestWindowedDetectionStillCatchesColluders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.Detector = DetectorOptimized
	cfg.WindowCycles = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, c := range cfg.Colluders {
		if res.Flagged[c] {
			flagged++
		}
	}
	if flagged < len(cfg.Colluders)-2 {
		t.Fatalf("windowed detection flagged only %d/%d colluders", flagged, len(cfg.Colluders))
	}
}

func TestLateOnsetDelaysDetection(t *testing.T) {
	base := DefaultConfig()
	base.ColluderGoodProb = 0.2
	base.Detector = DetectorOptimized

	early, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	late := base
	late.CollusionStartCycle = 10
	lateRes, err := Run(late)
	if err != nil {
		t.Fatal(err)
	}

	meanCycle := func(res *Result) float64 {
		sum, n := 0, 0
		for _, c := range base.Colluders {
			if res.Flagged[c] {
				sum += res.DetectionCycle[c]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	earlyMean, lateMean := meanCycle(early), meanCycle(lateRes)
	if earlyMean == 0 || lateMean == 0 {
		t.Fatalf("colluders undetected: early=%v late=%v", earlyMean, lateMean)
	}
	if lateMean < 10 {
		t.Fatalf("late-onset colluders detected at cycle %v, before they started", lateMean)
	}
	if lateMean <= earlyMean {
		t.Fatalf("late onset (%v) not later than early onset (%v)", lateMean, earlyMean)
	}
	// Detection must follow onset promptly (within a few cycles).
	if lateMean > 13 {
		t.Fatalf("detection lagged onset by %v cycles", lateMean-10)
	}
}

func TestOnsetSuppressesEarlyFlood(t *testing.T) {
	cfg := smallConfig()
	cfg.CollusionStartCycle = cfg.SimCycles // only the final cycle colludes
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The pair flood contributes CollusionRatings x QueryCycles ratings per
	// direction in exactly one cycle; a handful of organic ratings may add
	// to the pair count because colluders also serve each other's requests.
	want := cfg.CollusionRatings * cfg.QueryCycles
	got := res.Ledger.PairTotal(cfg.Colluders[0], cfg.Colluders[1])
	if got < want || got > want+20 {
		t.Fatalf("flood volume = %d, want about %d (one cycle only)", got, want)
	}
}

// A tight two-cycle window still catches continuous collusion: every
// window contains at least one full cycle of flooding, far above T_N.
// (The forgetting semantics of the window itself — evicted periods no
// longer counting — is covered by the internal/ingest window tests.)
func TestTightWindowStillDetects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.SimCycles = 8
	cfg.Detector = DetectorOptimized
	cfg.WindowCycles = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flagged[3] {
		t.Fatal("continuous collusion not caught under a tight window")
	}
}

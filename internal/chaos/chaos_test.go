package chaos

import (
	"strings"
	"testing"

	"mpcquery/internal/mpc"
)

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"7",
		"7:drop=0.05",
		"1:drop=0.05,dup=0.02,crash=0.01,straggle=0.1,delay=8,persist=2,attempts=8",
		"18446744073709551615:straggle=1",
		"0:dup=1e-05",
		"3:crash=0.5,attempts=16",
		"404:crash=0.35,after=3",
		"1:drop=0.05,dup=0.02,crash=0.01,straggle=0.1,delay=8,persist=2,attempts=8,after=4",
	} {
		cfg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		out := cfg.String()
		cfg2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", spec, out, err)
		}
		if cfg2 != cfg {
			t.Errorf("%q: round-trip mismatch: %+v vs %+v", spec, cfg, cfg2)
		}
		if out2 := cfg2.String(); out2 != out {
			t.Errorf("%q: String not canonical: %q vs %q", spec, out, out2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                             // no seed
		"x",                            // non-numeric seed
		"-1",                           // negative seed
		"7:drop",                       // missing value
		"7:bogus=1",                    // unknown key
		"7:drop=nope",                  // bad rate
		"7:drop=1.5",                   // rate > 1
		"7:drop=-0.1",                  // rate < 0
		"7:drop=NaN",                   // NaN rate
		"7:drop=+Inf",                  // infinite rate
		"7:delay=-1",                   // negative delay
		"7:persist=-2",                 // negative persist
		"7:attempts=-3",                // negative attempts
		"7:after=-1",                   // negative after
		"7:delay=99999999999999999999", // overflow
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := MustParseSchedule("42:drop=0.3,dup=0.2,crash=0.25,straggle=0.5")
	b := MustParseSchedule("42:drop=0.3,dup=0.2,crash=0.25,straggle=0.5")
	other := MustParseSchedule("43:drop=0.3,dup=0.2,crash=0.25,straggle=0.5")
	same, diff := true, true
	for round := 0; round < 4; round++ {
		for srv := 0; srv < 16; srv++ {
			if a.StragglerUnits(round, srv) != b.StragglerUnits(round, srv) ||
				a.CrashedAt(round, 0, srv) != b.CrashedAt(round, 0, srv) {
				same = false
			}
			if a.StragglerUnits(round, srv) != other.StragglerUnits(round, srv) ||
				a.CrashedAt(round, 0, srv) != other.CrashedAt(round, 0, srv) {
				diff = false
			}
			for dst := 0; dst < 16; dst++ {
				if a.FragmentFate(round, 0, srv, dst, 0) != b.FragmentFate(round, 0, srv, dst, 0) {
					same = false
				}
				if a.FragmentFate(round, 0, srv, dst, 0) != other.FragmentFate(round, 0, srv, dst, 0) {
					diff = false
				}
			}
		}
	}
	if !same {
		t.Error("equal configs produced different fault decisions")
	}
	if diff {
		t.Error("different seeds produced identical fault decisions everywhere")
	}
}

func TestZeroRatesFireNothing(t *testing.T) {
	s := MustParseSchedule("9")
	for round := 0; round < 3; round++ {
		for srv := 0; srv < 8; srv++ {
			if s.StragglerUnits(round, srv) != 0 {
				t.Fatalf("straggler fired with zero rate")
			}
			if s.CrashedAt(round, 0, srv) {
				t.Fatalf("crash fired with zero rate")
			}
			for dst := 0; dst < 8; dst++ {
				if s.FragmentFate(round, 0, srv, dst, 0) != mpc.FateDeliver {
					t.Fatalf("fragment fate fired with zero rates")
				}
			}
		}
	}
}

// TestPersistenceBounded pins the convergence guarantee: with the
// default Persist, every fault point stops firing after Persist
// attempts, so the default replay budget always suffices.
func TestPersistenceBounded(t *testing.T) {
	s := MustParseSchedule("5:drop=1,crash=1")
	persist := s.cfg.Persist
	for round := 0; round < 3; round++ {
		for srv := 0; srv < 8; srv++ {
			if s.CrashedAt(round, persist, srv) {
				t.Fatalf("crash point fired past its persistence bound")
			}
			for dst := 0; dst < 8; dst++ {
				if s.FragmentFate(round, persist, srv, dst, 0) == mpc.FateDrop {
					t.Fatalf("drop point fired past its persistence bound")
				}
			}
		}
	}
	// Rate 1 means every point fires on attempt 0.
	if !s.CrashedAt(0, 0, 3) || s.FragmentFate(0, 0, 1, 2, 0) != mpc.FateDrop {
		t.Fatal("rate-1 fault point did not fire on attempt 0")
	}
}

// TestAfterGatesAllFaultClasses pins the mid-run fault axis: a schedule
// with after=N is completely silent on rounds < N and behaves exactly
// like its ungated twin from round N on.
func TestAfterGatesAllFaultClasses(t *testing.T) {
	gated := MustParseSchedule("42:drop=0.3,dup=0.2,crash=0.25,straggle=0.5,after=3")
	open := MustParseSchedule("42:drop=0.3,dup=0.2,crash=0.25,straggle=0.5")
	fired := false
	for round := 0; round < 8; round++ {
		for srv := 0; srv < 8; srv++ {
			if round < 3 {
				if gated.StragglerUnits(round, srv) != 0 || gated.CrashedAt(round, 0, srv) {
					t.Fatalf("round %d: gated schedule fired before after", round)
				}
			} else {
				if gated.StragglerUnits(round, srv) != open.StragglerUnits(round, srv) ||
					gated.CrashedAt(round, 0, srv) != open.CrashedAt(round, 0, srv) {
					t.Fatalf("round %d: gated schedule differs from ungated twin past after", round)
				}
			}
			for dst := 0; dst < 8; dst++ {
				fate := gated.FragmentFate(round, 0, srv, dst, 0)
				if round < 3 && fate != mpc.FateDeliver {
					t.Fatalf("round %d: gated fragment fate fired before after", round)
				}
				if round >= 3 {
					if fate != open.FragmentFate(round, 0, srv, dst, 0) {
						t.Fatalf("round %d: gated fragment fate differs past after", round)
					}
					if fate != mpc.FateDeliver {
						fired = true
					}
				}
			}
		}
	}
	if !fired {
		t.Fatal("gated schedule never fired past its after round")
	}
}

func TestRatesRoughlyCalibrated(t *testing.T) {
	s := MustParseSchedule("77:drop=0.25")
	fired := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if s.FragmentFate(i, 0, i%7, i%11, i%3) == mpc.FateDrop {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("drop rate 0.25 fired at %.3f over %d points", frac, n)
	}
}

func TestBackoffUnits(t *testing.T) {
	s := MustParseSchedule("1")
	prev := int64(0)
	for attempt := 0; attempt < 12; attempt++ {
		u := s.BackoffUnits(attempt)
		if u < 1 || u > 64 {
			t.Fatalf("backoff(%d) = %d outside [1, 64]", attempt, u)
		}
		if u < prev {
			t.Fatalf("backoff not monotone at attempt %d", attempt)
		}
		prev = u
	}
}

func TestReportString(t *testing.T) {
	s := MustParseSchedule("7:drop=0.1")
	rep := s.Report(nil, &mpc.RecoveryFailure{Round: 2, Name: "shuffle", Attempts: 8, Lost: 3})
	if rep.Failure == nil {
		t.Fatal("report lost its failure")
	}
	str := rep.String()
	for _, want := range []string{"FAILED", "shuffle", "-chaos 7:drop=0.1"} {
		if !strings.Contains(str, want) {
			t.Errorf("report %q missing %q", str, want)
		}
	}
}

package experiments

// The headline correctness artifact of the static cycle-cost analyzer,
// enforced at full breadth: for every benchmark × every Table 1 scheme,
// the static per-block prediction — fed with the block counts and branch
// outcomes the simulator measured — must EXACTLY equal the attribution
// ledger's execute, nop and squash-annul base causes. Any drift means
// either the static timing model or the pipeline is wrong, the same
// differential proof style the hazard rules use. The gate also pins the
// model's boundary conditions: the whole suite must be fully inside the
// exact model's scope (no unmodeled constructs, no exceptions), and the
// residual base causes must be exactly the four pipeline-fill cycles of
// startup (the halting side is accounted by construction: the halt cpw and
// its in-flight followers never reach WB, so neither the ledger nor the
// static model counts them).

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/jsondoc"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
)

func TestStaticCostMatchesLedgerEveryBenchmarkEveryScheme(t *testing.T) {
	for _, b := range table1Benchmarks() {
		for _, scheme := range reorg.Table1Schemes() {
			t.Run(fmt.Sprintf("%s/%s", b.Name, scheme), func(t *testing.T) {
				im, err := buildCached(b, scheme)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				m := core.New(spec.Table1(scheme), nil)
				m.Observe(obs.NewMachineSink())
				m.Load(im)
				prof := obs.NewPCProfile(uint32(im.Base), len(im.Words))
				m.CPU.Prof = prof
				if _, err := m.Run(runLimit); err != nil {
					t.Fatalf("run: %v", err)
				}

				rep := lint.AnalyzeCost(im, lint.Config{Slots: scheme.Slots})
				if !rep.Exact() {
					t.Fatalf("suite image must be fully modelable, got:\n%v", rep.Unmodeled)
				}
				if got := m.CPU.Stats.Exceptions; got != 0 {
					t.Fatalf("suite run must be exception-free, took %d", got)
				}

				l := m.Obs.Ledger
				p := rep.Predict(prof)
				exec, nop, sq := l.Count(obs.CauseExecute), l.Count(obs.CauseNop), l.Count(obs.CauseSquashAnnul)
				if p.Execute != int64(exec) {
					t.Errorf("execute: static %d, ledger %d (drift %+d)", p.Execute, exec, p.Execute-int64(exec))
				}
				if p.Nops != int64(nop) {
					t.Errorf("nop: static %d, ledger %d (drift %+d)", p.Nops, nop, p.Nops-int64(nop))
				}
				if p.SquashAnnul != int64(sq) {
					t.Errorf("squash-annul: static %d, ledger %d (drift %+d)", p.SquashAnnul, sq, p.SquashAnnul-int64(sq))
				}

				// Boundary conditions: with no exceptions the only base cause
				// outside the model is pipeline fill, and a run from reset
				// fills the four empty WB slots of startup exactly once.
				if fill := l.Count(obs.CausePipeFill); fill != 4 {
					t.Errorf("pipe-fill: got %d, want exactly 4 (startup)", fill)
				}
				if kill := l.Count(obs.CauseExceptionKill); kill != 0 {
					t.Errorf("exception-kill: got %d, want 0", kill)
				}

				// Round trip: the profile survives serialization and the
				// prediction made from the parsed copy is identical (the
				// offline -cost -profile path).
				buf, err := jsondoc.Marshal(prof.Doc())
				if err != nil {
					t.Fatal(err)
				}
				back, err := obs.ParsePCProfile(buf)
				if err != nil {
					t.Fatal(err)
				}
				if pp := rep.Predict(back); pp != p {
					t.Errorf("prediction differs after profile round-trip: %+v vs %+v", pp, p)
				}
			})
		}
	}
}

package feedback_test

import (
	"context"
	"path/filepath"
	"testing"

	"zerotune/internal/feedback"
	"zerotune/internal/gnn"
	"zerotune/internal/serve"
)

// TestCandidateJudgedOnServingEngine: with a real server as the promoter, the
// MAPE a run reports for its candidate is the holdout MAPE of the revision the
// server then serves — the compiled engine, not the float64 reference the
// fine-tune ran on.
func TestCandidateJudgedOnServingEngine(t *testing.T) {
	ctx := context.Background()
	zt, items := feedback.TinyModel(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := zt.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Options{Learn: &serve.LearnOptions{
		// Any candidate is promoted: the test compares numbers, not quality.
		Learner: feedback.Config{Dir: dir, MinSamples: 4, Epochs: 1, MaxShadowRegress: 100},
	}})
	defer s.Close()
	if _, err := s.ServeModelFile(path); err != nil {
		t.Fatal(err)
	}
	feedback.FeedStore(s.FeedbackStore(), items, 12)
	samples := s.FeedbackStore().Snapshot()

	rep, err := s.Learner().RunOnce(ctx)
	if err != nil || !rep.Promoted {
		t.Fatalf("RunOnce: %+v, %v; want a promotion", rep, err)
	}
	served, _, _, err := s.CurrentModel()
	if err != nil {
		t.Fatal(err)
	}
	if e := served.Compiled().Engine; e != gnn.EngineF32 {
		t.Fatalf("the promoted revision runs the %v engine, want f32", e)
	}
	_, holdout := feedback.SplitSamples(samples, feedback.HoldbackFrac, serve.DefaultLearnSeed)
	want, err := feedback.ShadowMAPE(ctx, served, holdout)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CandidateMAPE != want {
		t.Fatalf("reported candidate MAPE %v, the promoted revision's holdout MAPE is %v", rep.CandidateMAPE, want)
	}
}

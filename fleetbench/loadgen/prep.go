package main

import (
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/sim"
)

// Population and training recipe. The daemon's default population is 20,000
// lines; its default budget (population/50 = 400) is the week-close rank size.
const (
	numLines   = 20000
	budgetN    = numLines / 50
	predRounds = 120 // the daemon's -rounds default
	// The predictor trains on weeks 29-31 and the locator on dispatches
	// before week 26: fewer examples than the daemon's own recipe, which
	// shortens per-seed preparation without changing model size (rounds,
	// selected features, kept dispositions), and so without changing
	// serving cost. A seed whose short case window keeps fewer than all 52
	// dispositions retrains the locator on dispatches before week 36.
	trainLo, trainHi = 29, 31
	locatorCasesTo   = 26
	locatorCasesMax  = 36
	dispositions     = 52
	// prepRecipe names this recipe in the cache directory; bump it when the
	// recipe changes so stale artifacts are never reused.
	prepRecipe = "r2"
)

// prepared is one seed's inputs: the simulated year in memory plus the files
// every daemon loads (dataset, predictor, locator).
type prepared struct {
	DS           *data.Dataset
	DataPath     string
	PredPath     string
	LocPath      string
	Dispositions int
}

type prepMeta struct {
	Dispositions int     `json:"dispositions"`
	TrainSeconds float64 `json:"train_seconds"`
}

// population is the seed of the simulated year and of training. It is
// fixed, not the run's -seed: a model trained on another year selects other
// features and costs another amount to serve, and that lottery would swamp
// the run-to-run comparison the benchmark exists for.
const population = 1

// prepare simulates the population's year and trains the predictor and
// locator on it, outside every timed window. The files are cached under
// work/prep, so only a checkout's first run trains; the simulation itself is
// rerun (it is deterministic and faster than loading the file back).
func prepare(work string, seed uint64, logf func(string, ...any)) (*prepared, error) {
	t0 := time.Now()
	res, err := sim.Run(sim.DefaultConfig(numLines, seed))
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	ds := res.Dataset
	root := filepath.Join(work, "prep")
	dir := filepath.Join(root, fmt.Sprintf("%s-seed-%d", prepRecipe, seed))
	p := &prepared{
		DS:       ds,
		DataPath: filepath.Join(dir, "dataset.gob.gz"),
		PredPath: filepath.Join(dir, "predictor.gob.gz"),
		LocPath:  filepath.Join(dir, "locator.gob.gz"),
	}
	if b, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
		var m prepMeta
		if err := json.Unmarshal(b, &m); err == nil && m.Dispositions > 0 {
			p.Dispositions = m.Dispositions
			logf("prep: population %d simulated in %v; models cached in %s", seed, time.Since(t0).Round(time.Millisecond), dir)
			return p, nil
		}
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := saveDataset(ds, filepath.Join(tmp, "dataset.gob.gz")); err != nil {
		return nil, err
	}
	t1 := time.Now()
	cfg := core.DefaultPredictorConfig(ds.NumLines, seed)
	cfg.Rounds = predRounds
	pred, err := core.TrainPredictor(ds, features.WeekRange(trainLo, trainHi), cfg)
	if err != nil {
		return nil, fmt.Errorf("train predictor: %w", err)
	}
	if err := pred.Save(filepath.Join(tmp, "predictor.gob.gz")); err != nil {
		return nil, err
	}
	var loc *core.TroubleLocator
	for _, to := range []int{locatorCasesTo, locatorCasesMax} {
		cases := core.CasesFromNotes(ds, data.FirstSaturday, data.SaturdayOf(to)-1)
		if loc, err = core.TrainLocator(ds, cases, core.DefaultLocatorConfig(seed)); err != nil {
			return nil, fmt.Errorf("train locator: %w", err)
		}
		if len(loc.Dispositions) >= dispositions {
			break
		}
	}
	if err := loc.Save(filepath.Join(tmp, "locator.gob.gz")); err != nil {
		return nil, err
	}
	m := prepMeta{Dispositions: len(loc.Dispositions), TrainSeconds: time.Since(t1).Seconds()}
	b, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), b, 0o644); err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	p.Dispositions = m.Dispositions
	logf("prep: population %d simulated and trained in %v (training %.1fs, %d dispositions)",
		seed, time.Since(t0).Round(time.Millisecond), m.TrainSeconds, m.Dispositions)
	return p, nil
}

// saveDataset writes the dataset in data.Load's format (gzipped gob) with
// stored, uncompressed blocks: every daemon decodes it at start-up, and
// inflating a compressed copy would dominate that load.
func saveDataset(ds *data.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.NoCompression)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(zw).Encode(ds); err != nil {
		return fmt.Errorf("encode dataset: %w", err)
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// indexNames are the six exported wave-index variables, in the order
// indexPaths lists a year's files.
var indexNames = []string{
	"heat_wave_duration", "heat_wave_number", "heat_wave_frequency",
	"cold_wave_duration", "cold_wave_number", "cold_wave_frequency",
}

func indexPaths(yr YearResult) []string {
	return []string{
		yr.HeatWave.Duration, yr.HeatWave.Number, yr.HeatWave.Frequency,
		yr.ColdWave.Duration, yr.ColdWave.Number, yr.ColdWave.Frequency,
	}
}

// payloadDigest hashes the raw float32 bits of every year's six
// exported index payloads.
func payloadDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	for _, yr := range res.Years {
		for i, path := range indexPaths(yr) {
			_, v, err := readIndexVariable(path, indexNames[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// exactDigest is payloadDigest of testConfig(t, 2) under exact
// execution. It pins the index values both modes produced before they
// shared their stage functions; a change to it is a change of results.
const exactDigest = "e0d93952558ae392"

// TestIndexOutputsPinned: at Tolerance 0 both modes still export the
// exact same index payloads, bit for bit.
func TestIndexOutputsPinned(t *testing.T) {
	for name, run := range map[string]func(Config) (*Result, error){"Run": Run, "RunSequential": RunSequential} {
		cfg := testConfig(t, 2)
		cfg.IndexParams.Tolerance = 0
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := payloadDigest(t, res); got != exactDigest {
			t.Errorf("%s: index payload digest %s, want %s", name, got, exactDigest)
		}
	}
}

// TestRunHonoursIndexTolerance: a declared tolerance reaches Run's
// wave-index tasks — the coarse-first pass does different work — and
// bounds the error of every exported index cell.
func TestRunHonoursIndexTolerance(t *testing.T) {
	const eps = 0.5
	exact, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 2)
	cfg.IndexParams.Tolerance = eps
	tol, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tol.CubeStats.CellsProcessed == exact.CubeStats.CellsProcessed {
		t.Fatalf("tolerant run processed exactly the exact run's %d cells; tolerance ignored", exact.CubeStats.CellsProcessed)
	}
	for y := range exact.Years {
		want, got := indexPaths(exact.Years[y]), indexPaths(tol.Years[y])
		for i, name := range indexNames {
			_, wv, err := readIndexVariable(want[i], name)
			if err != nil {
				t.Fatal(err)
			}
			_, gv, err := readIndexVariable(got[i], name)
			if err != nil {
				t.Fatal(err)
			}
			for c := range wv {
				// 1e-3 absorbs the float32 rounding of frequencies
				if d := math.Abs(float64(gv[c]) - float64(wv[c])); d > eps+1e-3 {
					t.Fatalf("year %d %s cell %d: %v vs exact %v, |diff| %g > %g", exact.Years[y].Year, name, c, gv[c], wv[c], d, eps)
				}
			}
		}
	}
}

// TestBaselineCubesBuiltOnce: each baseline task builds only its own
// side. One extra year adds exactly one year of analysis cells, so the
// once-per-run cells are 2·cells(1 year) − cells(2 years), and those
// are the two baseline cubes.
func TestBaselineCubesBuiltOnce(t *testing.T) {
	one, err := Run(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 1)
	perCube := int64(cfg.Grid.Size() * cfg.DaysPerYear)
	if got := 2*one.CubeStats.CellsProcessed - two.CubeStats.CellsProcessed; got != 2*perCube {
		t.Fatalf("once-per-run cells = %d, want two baseline cubes = %d", got, 2*perCube)
	}
}

// TestSequentialRejectsAttachOnly: the two-stage baseline runs its own
// model, so attaching must fail before anything is written into the
// external producer's directory.
func TestSequentialRejectsAttachOnly(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.AttachOnly = true
	cfg.ModelDir = t.TempDir()
	marker := filepath.Join(cfg.ModelDir, "producer.txt")
	if err := os.WriteFile(marker, []byte("external"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("RunSequential accepted AttachOnly")
	}
	entries, err := os.ReadDir(cfg.ModelDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "producer.txt" {
		t.Fatalf("attach directory changed: %v", entries)
	}
	if b, err := os.ReadFile(marker); err != nil || string(b) != "external" {
		t.Fatalf("producer file changed: %q, %v", b, err)
	}
}

// TestSequentialHonoursOnlineDiagnostics: an implausible simulation
// fails the two-stage baseline's model stage when OnlineDiagnostics is
// on, exactly as it fails Run's ESM task.
func TestSequentialHonoursOnlineDiagnostics(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Events.WaveAmplitudeK = 1e6 // seeded waves no real climate has
	cfg.OnlineDiagnostics = true
	_, err := RunSequential(cfg)
	if err == nil || !strings.Contains(err.Error(), "online diagnostics") {
		t.Fatalf("err = %v, want an online diagnostics failure", err)
	}
}

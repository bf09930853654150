package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/exec"
)

// TestEngineReportByteIdentity is the batch engine's campaign-level
// contract: a fuzz campaign's JSON report must be byte-identical to the one
// the same campaign produced on the row-at-a-time engine this repository
// used to ship, whose SHA-256 per database is recorded in
// internal/exec/testdata — same verdicts, same skip counts, same shrunk
// reproducers. Anything less means the engine changed some plan's results
// or a budget verdict. RandomCatalog always runs; TPC-H and star ride along
// unless -short.
func TestEngineReportByteIdentity(t *testing.T) {
	data, err := os.ReadFile("../exec/testdata/fuzz_report_sha256.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]string
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	type db struct {
		name string
		cat  *catalog.Catalog
	}
	dbs := []db{{"rand", nil}}
	if !testing.Short() {
		dbs = append(dbs,
			db{"tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.2, Seed: 1})},
			db{"star", catalog.LoadStar(catalog.DefaultStarConfig())},
		)
	}
	for _, d := range dbs {
		t.Run(d.name, func(t *testing.T) {
			cfg := Config{Seed: 21, N: 96, Workers: 8, Engine: exec.EngineBatch}
			if d.cat != nil {
				cfg.Catalog = d.cat
				cfg.DB = d.name
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(report)
			if got := hex.EncodeToString(sum[:]); got != recorded[d.name] {
				t.Errorf("report SHA-256 %s, recorded %s; report:\n%s", got, recorded[d.name], report)
			}
		})
	}
}

// TestStringDomainCarriesFramingBytes pins that the widened random-value
// domain actually reaches generated tables: some catalog must contain a
// string value with a framing byte, or the key-encoding regression coverage
// this domain exists for is silently gone.
func TestStringDomainCarriesFramingBytes(t *testing.T) {
	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		cat := RandomCatalog(seed)
		for _, name := range cat.TableNames() {
			tbl, err := cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range tbl.Rows {
				for _, dm := range row {
					if !dm.IsNull() && len(dm.S) > 0 {
						for _, b := range []byte(dm.S) {
							if b == '|' || b == ':' || b == ';' {
								found = true
							}
						}
					}
				}
			}
		}
	}
	if !found {
		t.Error("no random catalog produced a string containing a key-framing byte (| : ;)")
	}
}

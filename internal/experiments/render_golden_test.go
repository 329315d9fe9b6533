package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"shadowblock/internal/trace"
)

// goldenCase is one experiment as TestExperimentRenderGoldens sees it: its
// paperbench name and the text paperbench prints for it.
type goldenCase struct {
	name   string
	render func(Runner) (string, error)
}

// TestExperimentRenderGoldens pins every experiment's rendered output, byte
// for byte, at a small fixed scale (mcf/namd/hmmer, 2 000 references, seed
// 7): testdata/<name>.txt holds exactly what `paperbench -out` writes for
// that experiment at this runner. A change to how experiments are built,
// swept or rendered must leave every file untouched; a change that is meant
// to move a number regenerates them with -update-goldens and says why.
func TestExperimentRenderGoldens(t *testing.T) {
	var wl []trace.Profile
	for _, n := range []string{"mcf", "namd", "hmmer"} {
		p, ok := trace.ByName(n)
		if !ok {
			t.Fatalf("missing profile %s", n)
		}
		wl = append(wl, p)
	}
	r := Runner{Refs: 2000, Seed: 7, Workloads: wl}

	cases := goldenCases()
	want := map[string]bool{filepath.Base(pinsFile): true}
	for _, c := range cases {
		want[c.name+".txt"] = true
		text, err := c.render(r)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got := text + "\n"
		path := filepath.Join("testdata", c.name+".txt")
		if *updateGoldens {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != string(golden) {
			t.Errorf("%s: output differs from %s\n--- got ---\n%s--- want ---\n%s", c.name, path, got, golden)
		}
	}
	// Every golden but the cycle pins belongs to an experiment: a renamed
	// or deleted one must take its file with it.
	files, err := filepath.Glob(filepath.Join("testdata", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !want[filepath.Base(f)] {
			t.Errorf("%s belongs to no experiment", f)
		}
	}
}

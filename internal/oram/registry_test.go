package oram

import (
	"strings"
	"testing"
)

func TestRegistryPathEngine(t *testing.T) {
	info, ok := LookupEngine(PathEngine)
	if !ok {
		t.Fatal("path engine not registered")
	}
	if c := info.Caps; !(c.Functional && c.Treetop) {
		t.Fatalf("path engine must compose with every axis: %+v", c)
	}
	found := false
	for _, name := range Engines() {
		if name == PathEngine {
			found = true
		}
	}
	if !found {
		t.Fatalf("Engines() = %v misses %q", Engines(), PathEngine)
	}

	eng, err := NewEngine(PathEngine, Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, isCtrl := eng.(*Controller); !isCtrl || eng.Name() != PathEngine {
		t.Fatalf("path engine construction returned %T named %q", eng, eng.Name())
	}
}

func TestRegistryUnknownEngineListsKnown(t *testing.T) {
	_, err := NewEngine("bogus", Default(), nil)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, want := range []string{"bogus", PathEngine} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	mustPanic := func(name string, info EngineInfo) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterEngine did not panic", name)
			}
		}()
		RegisterEngine(info)
	}
	ctor := func(Config, DupPolicy) (Engine, error) { return nil, nil }
	mustPanic("empty name", EngineInfo{New: ctor})
	mustPanic("nil constructor", EngineInfo{Name: "x"})
	mustPanic("duplicate", EngineInfo{Name: PathEngine, New: ctor})
}

func TestCapsCheckNamesTheAxis(t *testing.T) {
	none := Caps{}
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Functional = true }, "functional"},
		{func(c *Config) { c.TreetopLevels = 2 }, "treetop"},
	} {
		cfg := Default()
		tc.mutate(&cfg)
		err := none.Check("stub", cfg)
		if err == nil {
			t.Errorf("%s: capless engine accepted the axis", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), "stub") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not name the engine and the axis %q", err, tc.want)
		}
	}
	// The memory-system axes are the memory port's, so they need no
	// capability: a capless engine takes them.
	cfg := Default()
	cfg.Pipeline, cfg.Channels, cfg.WBDecoupled = true, 4, true
	if err := none.Check("stub", cfg); err != nil {
		t.Errorf("memory-system axes rejected by a capless engine: %v", err)
	}
	all := Caps{Functional: true, Treetop: true}
	cfg.Functional, cfg.TreetopLevels = true, 2
	if err := all.Check("stub", cfg); err != nil {
		t.Errorf("fully-capable engine rejected a config: %v", err)
	}
}

// TestNewEngineEnforcesCaps pins that capability violations surface as
// construction errors, not later panics.
func TestNewEngineEnforcesCaps(t *testing.T) {
	RegisterEngine(EngineInfo{
		Name: "capless-test-engine",
		New: func(cfg Config, _ DupPolicy) (Engine, error) {
			t.Fatal("constructor ran despite a capability violation")
			return nil, nil
		},
	})
	cfg := Default()
	cfg.Functional = true
	if _, err := NewEngine("capless-test-engine", cfg, nil); err == nil {
		t.Fatal("capability violation not rejected at construction")
	}
}

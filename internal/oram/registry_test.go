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
	c := info.Caps
	if !(c.Pipeline && c.Channels && c.WBDecoupled && c.Cores && c.Functional && c.Treetop) {
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
		cores  int
		want   string
	}{
		{func(c *Config) { c.Pipeline = true }, 1, "-pipe"},
		{func(c *Config) { c.Channels = 2 }, 1, "-cN"},
		{func(c *Config) { c.WBDecoupled = true }, 1, "-wbd"},
		{func(c *Config) {}, 2, "-coreN"},
		{func(c *Config) { c.Functional = true }, 1, "functional"},
		{func(c *Config) { c.TreetopLevels = 2 }, 1, "treetop"},
	} {
		cfg := Default()
		tc.mutate(&cfg)
		err := none.Check("stub", cfg, tc.cores)
		if err == nil {
			t.Errorf("%s: capless engine accepted the axis", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), "stub") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not name the engine and the axis %q", err, tc.want)
		}
	}
	if err := none.Check("stub", Default(), 1); err != nil {
		t.Errorf("plain config rejected by a capless engine: %v", err)
	}
	all := Caps{Pipeline: true, Channels: true, WBDecoupled: true, Cores: true, Functional: true, Treetop: true}
	cfg := Default()
	cfg.Pipeline, cfg.Channels, cfg.WBDecoupled, cfg.TreetopLevels = true, 4, true, 2
	if err := all.Check("stub", cfg, 4); err != nil {
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
	cfg.Pipeline = true
	if _, err := NewEngine("capless-test-engine", cfg, nil); err == nil {
		t.Fatal("capability violation not rejected at construction")
	}
}

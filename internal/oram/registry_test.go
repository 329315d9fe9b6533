package oram

import (
	"strings"
	"testing"
)

func TestRegistryPathEngine(t *testing.T) {
	if _, ok := LookupEngine(PathEngine); !ok {
		t.Fatal("path engine not registered")
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

	// The Path engine composes with every axis.
	cfg := Default()
	cfg.L, cfg.StashCapacity = 8, 120
	cfg.Functional, cfg.TreetopLevels = true, 2
	cfg.Channels, cfg.WBDecoupled = 4, true
	eng, err := NewEngine(PathEngine, cfg, nil)
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

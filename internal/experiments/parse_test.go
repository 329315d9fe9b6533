package experiments

import (
	"fmt"
	"strings"
	"testing"

	"shadowblock/internal/core"
)

// canonical renders a Scheme's configuration in the grammar ParseScheme
// documents. It reads every field but Name, so "every accepted name equals
// canonical(its Scheme)" is the one-spelling property: two accepted names
// with the same configuration would both have to equal the same rendering.
func canonical(s Scheme) string {
	var b strings.Builder
	if s.Engine != "" {
		b.WriteString(s.Engine + ":")
	}
	switch {
	case s.Insecure:
		b.WriteString("insecure")
	case s.Policy == nil:
		b.WriteString("tiny")
	case s.Policy.Mode == core.ModeRD:
		b.WriteString("rd")
	case s.Policy.Mode == core.ModeHD:
		b.WriteString("hd")
	case s.Policy.Mode == core.ModeStatic:
		fmt.Fprintf(&b, "static-%d", s.Policy.PartitionLevel)
	case s.Policy.Mode == core.ModeDynamic:
		fmt.Fprintf(&b, "dynamic-%d", s.Policy.DRICounterBits)
	}
	if s.Pipeline {
		b.WriteString("-pipe")
	}
	if s.Channels > 0 {
		fmt.Fprintf(&b, "-c%d", s.Channels)
	}
	if s.WBDecoupled {
		b.WriteString("-wbd")
	}
	if s.Cores > 0 {
		fmt.Fprintf(&b, "-core%d", s.Cores)
	}
	return b.String()
}

// misspellings returns every other way of writing base plus the given
// suffixes (listed in canonical order): each reordering, and each suffix
// stated twice — adjacent, at the end, and (for the counted ones) with a
// second value.
func misspellings(base string, suffixes []string) []string {
	var out []string
	var permute func(done, rest []string)
	permute = func(done, rest []string) {
		if len(rest) == 0 {
			out = append(out, base+strings.Join(done, ""))
			return
		}
		for i := range rest {
			next := append(append([]string{}, rest[:i]...), rest[i+1:]...)
			permute(append(done[:len(done):len(done)], rest[i]), next)
		}
	}
	permute(nil, suffixes)
	out = out[1:] // the first permutation is the canonical order itself
	for i, suf := range suffixes {
		head, tail := strings.Join(suffixes[:i+1], ""), strings.Join(suffixes[i+1:], "")
		out = append(out, base+head+suf+tail, base+head+tail+suf)
		if strings.HasPrefix(suf, "-c") { // -cN, -coreN
			out = append(out, base+head+suf+"1"+tail)
		}
	}
	return out
}

// TestParseSchemeRoundTrip covers every scheme vocabulary base crossed with
// every suffix combination in canonical order
// (base[-pipe][-cN][-wbd][-coreN]) and checks each parse lands on exactly
// the expected Scheme with the full name preserved — and that no other
// spelling of the same cell (a reordering, a repeated suffix) is accepted.
// The insecure baseline rejects the engine suffixes but accepts -coreN:
// cores are a processor property, not an ORAM one.
func TestParseSchemeRoundTrip(t *testing.T) {
	bases := []struct {
		name     string
		insecure bool
		dynamic  bool
	}{
		{"insecure", true, false},
		{"tiny", false, false},
		{"rd", false, false},
		{"hd", false, false},
		{"static-7", false, false},
		{"dynamic-3", false, true},
	}
	pipes := []bool{false, true}
	channelCounts := []int{0, 1, 4}
	wbds := []bool{false, true}
	coreCounts := []int{0, 2, 4}

	for _, b := range bases {
		for _, pipe := range pipes {
			for _, ch := range channelCounts {
				for _, wbd := range wbds {
					for _, cores := range coreCounts {
						var suffixes []string
						if pipe {
							suffixes = append(suffixes, "-pipe")
						}
						if ch > 0 {
							suffixes = append(suffixes, fmt.Sprintf("-c%d", ch))
						}
						if wbd {
							suffixes = append(suffixes, "-wbd")
						}
						if cores > 0 {
							suffixes = append(suffixes, fmt.Sprintf("-core%d", cores))
						}
						name := b.name + strings.Join(suffixes, "")
						t.Run(name, func(t *testing.T) {
							for _, bad := range misspellings(b.name, suffixes) {
								if s, err := ParseScheme(bad); err == nil {
									t.Errorf("%q, a second spelling of %q, accepted: %+v", bad, name, s)
								}
							}
							s, err := ParseScheme(name)
							if b.insecure && (pipe || ch > 0 || wbd) {
								if err == nil {
									t.Fatalf("insecure with an engine suffix accepted: %+v", s)
								}
								return
							}
							if err != nil {
								t.Fatal(err)
							}
							if s.Name != name || canonical(s) != name {
								t.Errorf("Name = %q, canonical = %q, want both the full input %q", s.Name, canonical(s), name)
							}
							if s.Insecure != b.insecure || s.Pipeline != pipe || s.Channels != ch ||
								s.WBDecoupled != wbd || s.Cores != cores {
								t.Errorf("parsed %+v, want insecure=%v pipeline=%v channels=%d wbd=%v cores=%d",
									s, b.insecure, pipe, ch, wbd, cores)
							}
							if b.dynamic && (s.Policy == nil || s.Policy.HotEntries == 0) {
								t.Errorf("dynamic base lost its policy: %+v", s.Policy)
							}
						})
					}
				}
			}
		}
	}
}

// TestParseSchemeEngines covers the engine: prefix: every registered
// engine crossed with the bases and suffixes parses to the prefixed Scheme
// (every engine submits through the one memory port, so every suffix
// composes with every engine), and "path" is the implied default of a bare
// name.
func TestParseSchemeEngines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine string
		cores  int
	}{
		{"path:tiny", "path", 0},
		{"path:dynamic-3-pipe-c4-wbd-core4", "path", 4},
		{"ring:tiny", "ring", 0},
		{"ring:dynamic-3", "ring", 0},
		{"ring:static-7-core2", "ring", 2},
		{"ring:tiny-pipe", "ring", 0},
		{"ring:dynamic-3-c4", "ring", 0},
		{"ring:tiny-wbd", "ring", 0},
		{"ring:dynamic-3-pipe-c4-wbd-core4", "ring", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseScheme(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != tc.name || s.Engine != tc.engine || s.Cores != tc.cores {
				t.Errorf("parsed %+v, want name=%q engine=%q cores=%d", s, tc.name, tc.engine, tc.cores)
			}
		})
	}

	// A bare name and its explicit path: spelling differ only in Name and
	// the (implied vs explicit) Engine field.
	bare, err1 := ParseScheme("dynamic-3-pipe")
	pref, err2 := ParseScheme("path:dynamic-3-pipe")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if bare.Engine != "" || pref.Engine != "path" {
		t.Errorf("engine fields: bare=%q prefixed=%q", bare.Engine, pref.Engine)
	}
	if bare.Pipeline != pref.Pipeline || (bare.Policy == nil) != (pref.Policy == nil) {
		t.Errorf("bare and path: parses diverged: %+v vs %+v", bare, pref)
	}

	// Unknown engines name the registry's contents.
	_, err := ParseScheme("bogus:tiny")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, want := range []string{"bogus", "path", "ring"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-engine error %q does not mention %q", err, want)
		}
	}
}

// TestParseSchemeRejects pins the malformed inputs the fuzz target has no
// oracle for.
func TestParseSchemeRejects(t *testing.T) {
	for _, name := range []string{
		"", "bogus", "tiny-c0", "tiny-core0", "tiny-c-4",
		"insecure-pipe", "insecure-c4", "insecure-pipe-core4",
		"insecure-wbd", "insecure-wbd-core2", "-wbd",
		"static-", "dynamic-", "static-x", "-pipe", "-c4", "-core4",
		"bogus:tiny", "ring:", ":tiny", ":", "ring:ring:tiny", "path:path:tiny",
		"ring:insecure", "path:insecure", "ring:bogus",
		// One spelling per configuration: no reordered or repeated suffix,
		// no signed or zero-padded numeral, no engine option on insecure
		// even behind a -coreN.
		"tiny-pipe-pipe", "tiny-c2-c4", "tiny-core1-core2", "tiny-wbd-wbd",
		"tiny-wbd-pipe", "tiny-c4-pipe", "dynamic-3-core4-pipe",
		"tiny-c+4", "tiny-c04", "tiny-core+2", "tiny-core02",
		"dynamic-03", "dynamic-+3", "static-+7", "static-07", "static--7",
		"insecure-core2-pipe", "insecure-pipe-core2", "insecure-c2-core2",
		"tiny-c99999999999999999999", "static-99999999999999999999",
	} {
		if s, err := ParseScheme(name); err == nil {
			t.Errorf("%q accepted: %+v", name, s)
		}
	}
}

// FuzzParseScheme asserts ParseScheme's contract over arbitrary input: it
// never panics, and any accepted name is stable and unique — the parse
// preserves the name, re-parsing it reproduces the identical scheme (so a
// Scheme's Name is always a valid way to recreate it), and the name is the
// canonical rendering of the configuration it parsed to, so no two accepted
// names ever denote the same Scheme-minus-Name.
func FuzzParseScheme(f *testing.F) {
	accepted := []string{
		"insecure", "tiny", "rd", "hd", "static-7", "dynamic-3",
		"tiny-pipe", "dynamic-3-pipe-c4-core4", "insecure-core2",
		"tiny-c16", "static-1-core64", "tiny-wbd", "dynamic-3-pipe-c4-wbd",
		"ring:tiny", "ring:dynamic-3-core2", "path:dynamic-3-pipe-c4-wbd",
		"path:static-7", "ring:tiny-pipe",
	}
	rejected := []string{
		"bogus", "tiny-c-1", "-pipe", "tiny-core", "tiny-corea",
		"dynamic--3", "tiny-pipe-c", "insecure-wbd", "tiny-wbd-wbd",
		"tiny-c2-c4", "tiny-c+4", "dynamic-03", "insecure-core2-pipe",
		"bogus:tiny", "ring:insecure", "ring:", ":tiny",
		"ring:ring:tiny",
	}
	for _, seed := range accepted {
		if _, err := ParseScheme(seed); err != nil {
			f.Fatalf("seed %q must be accepted: %v", seed, err)
		}
		f.Add(seed)
	}
	for _, seed := range rejected {
		if s, err := ParseScheme(seed); err == nil {
			f.Fatalf("seed %q must be rejected, parsed to %+v", seed, s)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseScheme(name)
		if err != nil {
			return
		}
		if s.Name != name {
			t.Fatalf("accepted %q but set Name = %q", name, s.Name)
		}
		if want := canonical(s); name != want {
			t.Fatalf("accepted %q, a second spelling of %q: %+v", name, want, s)
		}
		again, err := ParseScheme(s.Name)
		if err != nil {
			t.Fatalf("accepted %q once, rejected on re-parse: %v", name, err)
		}
		// Policy is a pointer; compare it structurally, the rest directly.
		if again.Name != s.Name || again.Engine != s.Engine ||
			again.Insecure != s.Insecure || again.TP != s.TP ||
			again.Treetop != s.Treetop || again.XOR != s.XOR ||
			again.Pipeline != s.Pipeline || again.Channels != s.Channels ||
			again.WBDecoupled != s.WBDecoupled || again.Cores != s.Cores {
			t.Fatalf("re-parse diverged: %+v vs %+v", again, s)
		}
		if (again.Policy == nil) != (s.Policy == nil) {
			t.Fatalf("re-parse diverged on policy: %+v vs %+v", again.Policy, s.Policy)
		}
		if s.Policy != nil && *again.Policy != *s.Policy {
			t.Fatalf("re-parse diverged on policy: %+v vs %+v", *again.Policy, *s.Policy)
		}
		if s.Channels < 0 || s.Cores < 0 {
			t.Fatalf("accepted negative counts: %+v", s)
		}
		if s.Insecure && (s.Pipeline || s.Channels > 0 || s.WBDecoupled || s.Engine != "") {
			t.Fatalf("insecure scheme with an ORAM engine option: %+v", s)
		}
	})
}

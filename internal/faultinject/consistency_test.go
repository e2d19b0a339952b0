package faultinject_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/faultinject"
)

// TestSitesMatchFiredSites cross-checks the two places a fault site
// exists: the Sites registry in this package and the faultinject.Fire
// calls in pipeline code. A site registered but never fired is dead
// weight; a site fired but missing from Sites silently escapes the
// site-iterating cancellation and chaos batteries.
//
// Site discovery is delegated to the faultsite analyzer
// (internal/analysis), the same type-checked walk `make lint` runs:
// analysis.FiredSites returns the site values of every
// faultinject.Fire call whose argument is a named faultinject.<Site>
// constant — and the analyzer itself rejects any Fire call that is
// not. This test only asserts set equality, so the discovery logic
// lives in exactly one place.
func TestSitesMatchFiredSites(t *testing.T) {
	root := moduleRoot(t)
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("%s: %v (type errors make site discovery unreliable)", pkg.PkgPath, terr)
		}
	}

	fired := analysis.FiredSites(pkgs)
	if len(fired) == 0 {
		t.Fatal("no faultinject.Fire sites found in pipeline code")
	}

	registered := append([]string(nil), faultinject.Sites...)
	sort.Strings(registered)
	for i := 1; i < len(registered); i++ {
		if registered[i] == registered[i-1] {
			t.Errorf("Sites lists %q twice", registered[i])
		}
	}

	firedSet := map[string]bool{}
	for _, s := range fired {
		firedSet[s] = true
	}
	for _, s := range registered {
		if !firedSet[s] {
			t.Errorf("registered site %q is never fired by pipeline code", s)
		}
	}
	registeredSet := map[string]bool{}
	for _, s := range registered {
		registeredSet[s] = true
	}
	for _, s := range fired {
		if !registeredSet[s] {
			t.Errorf("pipeline fires unregistered site %q", s)
		}
	}
}

// TestChaosKindMatrixMatchesSites keeps the chaos scheduler's
// site-kind matrix in lockstep with the site list: a Fire site added
// without a chaos.SiteKinds entry would silently escape the storm
// battery, and a matrix entry for a removed site is dead weight. Every
// entry must arm the panic, delay and cancel kinds, and may only name
// site kinds (squeeze is request-level).
func TestChaosKindMatrixMatchesSites(t *testing.T) {
	siteSet := map[string]bool{}
	for _, s := range faultinject.Sites {
		siteSet[s] = true
		kinds, ok := chaos.SiteKinds[s]
		if !ok {
			t.Errorf("site %q has no chaos.SiteKinds entry: the storm battery would never strike it", s)
			continue
		}
		have := map[chaos.Kind]bool{}
		for _, k := range kinds {
			switch k {
			case chaos.KindPanic, chaos.KindDelay, chaos.KindCancel:
			case chaos.KindSqueeze:
				t.Errorf("site %q arms the request-level squeeze kind", s)
			default:
				t.Errorf("site %q names unknown chaos kind %q", s, k)
			}
			if have[k] {
				t.Errorf("site %q lists kind %q twice", s, k)
			}
			have[k] = true
		}
		if !have[chaos.KindPanic] || !have[chaos.KindDelay] || !have[chaos.KindCancel] {
			t.Errorf("site %q must arm panic, delay and cancel, has %v", s, kinds)
		}
	}
	for s := range chaos.SiteKinds {
		if !siteSet[s] {
			t.Errorf("chaos.SiteKinds names unregistered site %q", s)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// Package a is the faultsite golden fixture: Fire-argument shape and
// spawn-path coverage, including delegation through same-package
// helpers (the call-graph fixpoint).
package a

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/pipeerr"
)

// Covered fires lexically inside the spawned closure: clean.
func Covered(ctx context.Context) error {
	g := pipeerr.NewGroup(ctx)
	g.Go(pipeerr.StageSort, 0, 0, func(ctx context.Context) error {
		faultinject.Fire(faultinject.ChunkSort)
		return ctx.Err()
	})
	return g.Wait()
}

// Uncovered never reaches a Fire on its spawn path.
func Uncovered(ctx context.Context, xs []int) error {
	g := pipeerr.NewGroup(ctx)
	g.Go(pipeerr.StageSort, 0, 0, func(ctx context.Context) error { // want `not covered by a faultinject site`
		s := 0
		for _, x := range xs {
			s += x
		}
		_ = s
		return ctx.Err()
	})
	return g.Wait()
}

// Delegated reaches Fire two same-package calls deep: the fixpoint
// follows level1 -> level2 -> Fire.
func Delegated(ctx context.Context) error {
	g := pipeerr.NewGroup(ctx)
	g.Go(pipeerr.StageMerge, 1, 0, func(ctx context.Context) error {
		return level1(ctx)
	})
	return g.Wait()
}

func level1(ctx context.Context) error { return level2(ctx) }

func level2(ctx context.Context) error {
	faultinject.Fire(faultinject.LoserMerge)
	return ctx.Err()
}

// NamedSpawn passes a function value instead of a literal; it resolves
// through the same call graph.
func NamedSpawn(ctx context.Context) error {
	g := pipeerr.NewGroup(ctx)
	g.Go(pipeerr.StageMerge, 0, 0, level1)
	return g.Wait()
}

// helper never Fires; spawns delegating only to it are uncovered.
func helper(ctx context.Context) error { return ctx.Err() }

func UncoveredDelegation(ctx context.Context) error {
	g := pipeerr.NewGroup(ctx)
	g.Go(pipeerr.StagePermute, 0, 0, helper) // want `not covered by a faultinject site`
	return g.Wait()
}

// BadArg bypasses the Sites list the chaos batteries iterate.
func BadArg() {
	faultinject.Fire("mcsort.pivot_select") // want `must be a named faultinject\.<Site> constant`
}

// PassSited hands the driver a literal that names its Site — the driver
// fires it once per range: clean.
func PassSited(ctx context.Context, out []int) error {
	return pipeerr.Pass{Stage: pipeerr.StageGather, Round: -1, Site: faultinject.Gather}.Rows(ctx, len(out), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	})
}

// PassVarSited reaches the driver through a variable defined from a
// sited literal: clean.
func PassVarSited(ctx context.Context, n int) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageSort, Round: 0, Site: faultinject.ChunkSort}
	return pass.Ranges(ctx, 2, n, func(ctx context.Context, i int) error { return ctx.Err() })
}

// PassUnsited names no Site and its function reaches no Fire: the
// uncovered spawn in the driver's spelling.
func PassUnsited(ctx context.Context, n int) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1}
	return pass.Ranges(ctx, 2, n, helperRange) // want `not covered by a faultinject site`
}

func helperRange(ctx context.Context, i int) error { return ctx.Err() }

// PassDelegates names no Site, but its function reaches a Fire through
// the same call-graph fixpoint: clean.
func PassDelegates(ctx context.Context, n int) error {
	return pipeerr.Pass{Stage: pipeerr.StageMerge, Round: -1}.Ranges(ctx, 2, n, func(ctx context.Context, i int) error {
		return level1(ctx)
	})
}

// PassBadSite spells its Site as a string, outside the Sites list.
func PassBadSite(ctx context.Context, n int) error {
	pass := pipeerr.Pass{Stage: pipeerr.StageGather, Round: -1, Site: "engine.gather"} // want `must be a named faultinject\.<Site> constant`
	return pass.Rows(ctx, n, 2, func(lo, hi int) {})
}

package main

import "fmt"

// perLayer declares every per-layer metric a traced run prints, in print
// order. BENCHMARK.json's per_layer list is this table (bench_test.go
// checks); README.md says which end-to-end metric each one is predicted
// to move, on which workload. Per-layer metrics carry no bound.
//
// Units: "count", "bytes", "core-h" and "sim-s" are counted or simulated
// and repeat exactly at one seed (-verify-repeat holds them to that);
// "allocs" are heap objects, near-deterministic; the rest are timed.
var perLayer = []struct{ name, unit, better string }{
	// From the workload's own trace.
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.top_level_cover_pct", "%", "higher"},
	{"share.core_pct", "%", "lower"},
	{"share.ic_pct", "%", "lower"},
	{"share.nbody_pct", "%", "lower"},
	{"share.cosmotools_pct", "%", "lower"},
	{"share.powerspec_pct", "%", "lower"},
	{"share.halo_pct", "%", "lower"},
	{"share.gio_pct", "%", "lower"},
	{"share.catalog_pct", "%", "lower"},
	{"share.mpi_pct", "%", "lower"},
	{"share.kdtree_pct", "%", "lower"},
	{"share.so_pct", "%", "lower"},
	{"share.subhalo_pct", "%", "lower"},
	{"share.bench_pct", "%", "lower"},
	// cosmo, core (model).
	{"cosmo.sigma_r_us", "us", "lower"},
	{"cosmo.mass_function_us", "us", "lower"},
	{"core.synthesize_ms", "ms", "lower"},
	{"core.scenario_ms", "ms", "lower"},
	{"core.run_kinds_ms", "ms", "lower"},
	{"core.sim_core_hours", "core-h", "lower"},
	{"core.sim_makespan_s", "sim-s", "lower"},
	{"core.qcontinuum_ms", "ms", "lower"},
	// core (engine), supervise, obs, des, sched, fs, fault.
	{"core.campaign_bare_ms", "ms", "lower"},
	{"core.campaign_bare20_ms", "ms", "lower"},
	{"core.campaign_scaling", "ratio", "lower"},
	{"supervise.overhead_ms", "ms", "lower"},
	{"supervise.overhead_allocs", "allocs", "lower"},
	{"obs.overhead_ms", "ms", "lower"},
	{"obs.overhead_allocs", "allocs", "lower"},
	{"supervise.decisions", "count", "lower"},
	{"obs.spans", "count", "lower"},
	{"obs.trace_write_ms", "ms", "lower"},
	{"obs.span_ns", "ns", "lower"},
	{"supervise.watch_us", "us", "lower"},
	{"des.events_per_s", "1/s", "higher"},
	{"sched.jobs_per_s", "1/s", "higher"},
	{"fs.list_us", "us", "lower"},
	{"sched.listener_sweep_us", "us", "lower"},
	{"fault.decide_ns", "ns", "lower"},
	// core (persisted), ckpt, integrity.
	{"core.persist_overhead_ms", "ms", "lower"},
	{"integrity.overhead_ms", "ms", "lower"},
	{"core.recover_ratio", "ratio", "lower"},
	{"core.generations", "count", "lower"},
	{"core.persisted_bytes", "bytes", "lower"},
	{"ckpt.journal_records", "count", "lower"},
	{"sched.retries", "count", "lower"},
	{"sched.hedges", "count", "lower"},
	{"ckpt.steps_skipped", "count", "higher"},
	{"ckpt.torn_files", "count", "lower"},
	{"integrity.verified", "count", "higher"},
	{"integrity.corruptions", "count", "lower"},
	{"integrity.repairs", "count", "higher"},
	{"ckpt.commit_us", "us", "lower"},
	{"ckpt.replay_ms", "ms", "lower"},
	{"integrity.append_us", "us", "lower"},
	{"integrity.verify_us_per_mb", "us", "lower"},
	// fft, grid, ic, nbody, halo, powerspec, kdtree, center, dparallel,
	// subhalo, so.
	{"fft.forward3d_ms", "ms", "lower"},
	{"grid.cic_deposit_ms", "ms", "lower"},
	{"ic.generate_ms", "ms", "lower"},
	{"nbody.step_ms", "ms", "lower"},
	{"nbody.particle_steps_per_s", "1/s", "higher"},
	{"halo.fof_ms", "ms", "lower"},
	{"halo.fof_allocs", "allocs", "lower"},
	{"halo.halos", "count", "higher"},
	{"powerspec.measure_ms", "ms", "lower"},
	{"kdtree.build_ms", "ms", "lower"},
	{"center.brute_ns_per_pair", "ns", "lower"},
	{"center.astar_ms", "ms", "lower"},
	{"center.pairs", "count", "lower"},
	{"dparallel.speedup_w2", "ratio", "higher"},
	{"subhalo.find_ms", "ms", "lower"},
	{"so.measure_us", "us", "lower"},
	// cosmotools, mpi.
	{"cosmotools.execute_ms", "ms", "lower"},
	{"cosmotools.dispatch_self_ms", "ms", "lower"},
	{"cosmotools.split_centers_ms", "ms", "lower"},
	{"cosmotools.parallel_r1_ms", "ms", "lower"},
	{"cosmotools.parallel_r2_ms", "ms", "lower"},
	{"cosmotools.rank_efficiency", "ratio", "higher"},
	{"nbody.distribute_ms", "ms", "lower"},
	{"mpi.alltoall_us", "us", "lower"},
	// gio, catalog, transit.
	{"gio.read_mb_per_s", "MB/s", "higher"},
	{"gio.l1_bytes", "bytes", "lower"},
	{"gio.write_mb_per_s", "MB/s", "higher"},
	{"gio.l2_bytes", "bytes", "lower"},
	{"catalog.merge_ms", "ms", "lower"},
	{"transit.put_take_us", "us", "lower"},
}

// checkPerLayer holds what a traced run measured to the declared table:
// same names, same units, same order.
func checkPerLayer(ms []metric) error {
	if len(ms) != len(perLayer) {
		return fmt.Errorf("traced run measured %d per-layer metrics, perLayer declares %d", len(ms), len(perLayer))
	}
	for i, m := range ms {
		if d := perLayer[i]; m.name != d.name || m.unit != d.unit {
			return fmt.Errorf("per-layer metric %d is %s [%s], perLayer declares %s [%s]", i, m.name, m.unit, d.name, d.unit)
		}
	}
	return nil
}

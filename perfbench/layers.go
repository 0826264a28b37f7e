package main

import (
	"fmt"
	"sort"
)

// kinds are the five systems' metric-name labels, in the paper's legend
// order.
var kinds = []string{"idealdram", "idealnvm", "journal", "shadow", "thynvm"}

// perLayer lists every per-layer metric with its unit. Each traced run
// prints all of them; a metric whose layer a workload never reaches reads 0.
var perLayer = func() [][2]string {
	m := [][2]string{
		{"trace.next_ns", "ns"},
		{"kv.get_us", "us"}, {"kv.put_us", "us"}, {"kv.delete_us", "us"}, {"kv.pause_us", "us"},
		{"kv.self_frac", "frac"}, {"kv.mem_calls_per_tx", "count"},
		{"kv.preload_s", "s"}, {"kv.settle_s", "s"},
		{"sim.ckpt_us", "us"}, {"sim.ckpts", "count"}, {"sim.new_system_us", "us"},
		{"cache.self_ns_per_access", "ns"}, {"cache.flush_self_us", "us"},
		{"cache.l1_hit_ratio", "frac"}, {"cache.l2_hit_ratio", "frac"}, {"cache.l3_hit_ratio", "frac"},
		{"cache.accesses", "count"}, {"cache.writebacks", "count"}, {"cache.flushed", "count"},
		{"core.read_ns", "ns"}, {"core.write_ns", "ns"}, {"core.begin_ckpt_us", "us"}, {"core.drain_us", "us"},
		{"core.host_frac", "frac"}, {"core.reads", "count"}, {"core.writes", "count"}, {"core.commits", "count"},
		{"core.ckpt_stall_mcycles", "Mcycles"}, {"core.migrations", "count"}, {"core.table_spills", "count"},
	}
	for _, k := range kinds[:4] {
		p := "baseline." + k + "."
		m = append(m, [2]string{p + "read_ns", "ns"}, [2]string{p + "write_ns", "ns"},
			[2]string{p + "begin_ckpt_us", "us"}, [2]string{p + "host_frac", "frac"})
	}
	m = append(m,
		[2]string{"baseline.journal.commits", "count"}, [2]string{"baseline.shadow.commits", "count"},
		[2]string{"mem.nvm_reads", "count"}, [2]string{"mem.nvm_writes", "count"}, [2]string{"mem.nvm_row_hit_ratio", "frac"},
		[2]string{"mem.dram_reads", "count"}, [2]string{"mem.dram_writes", "count"}, [2]string{"mem.dram_row_hit_ratio", "frac"},
		[2]string{"mem.nvm_ckpt_mb", "MB"}, [2]string{"mem.nvm_write_mb", "MB"}, [2]string{"mem.host_ns_per_access", "ns"},
	)
	for _, k := range kinds {
		m = append(m, [2]string{"torture.run_ms." + k, "ms"})
	}
	m = append(m,
		[2]string{"torture.run_ms.media", "ms"},
		[2]string{"torture.crashes", "count"}, [2]string{"torture.checkpoints", "count"}, [2]string{"torture.matches", "count"},
		[2]string{"torture.restarts", "count"}, [2]string{"torture.tears", "count"}, [2]string{"torture.fallbacks", "count"},
		[2]string{"torture.unrecoverable", "count"}, [2]string{"torture.generate_ms", "ms"},
		[2]string{"runtime.gc_cycles", "count"}, [2]string{"runtime.gc_cpu_frac", "frac"},
		[2]string{"runtime.alloc_bytes_per_unit", "B"}, [2]string{"runtime.allocs_per_unit", "count"},
	)
	for _, l := range layerOrder {
		if l != layerKV { // kv.self_frac is the kv share
			m = append(m, [2]string{"share." + l, "frac"})
		}
	}
	return append(m, [2]string{"traced.unattributed_frac", "frac"}, [2]string{"traced.overhead_frac", "frac"})
}()

// layerOrder lists the layers self time is charged to.
var layerOrder = []string{layerTrace, layerKV, layerSim, layerCache, layerCore, layerBaseline, layerTorture}

// setupParts are per-pass host-time counters reported as a median over the
// untraced passes rather than read from one pass.
var setupParts = []string{"kv.preload_s", "kv.settle_s", "torture.generate_ms"}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: simulated counters from one
// untraced pass (they repeat exactly), set-up parts and runtime counters
// from the untraced passes, and host time from the traced passes' spans.
func layerMetrics(w workload, plain, traced []*pass, rec *recorder, out map[string]metricValue) {
	v := map[string]float64{}
	c := plain[0].counts
	for k, x := range c {
		v[k] = x
	}
	for _, k := range setupParts {
		var xs []float64
		for _, p := range plain {
			xs = append(xs, p.counts[k])
		}
		v[k] = median(xs)
	}
	v["cache.l1_hit_ratio"] = ratio(c["cache.l1.hits"], c["cache.l1.misses"])
	v["cache.l2_hit_ratio"] = ratio(c["cache.l2.hits"], c["cache.l2.misses"])
	v["cache.l3_hit_ratio"] = ratio(c["cache.l3.hits"], c["cache.l3.misses"])
	accesses := c["cache.l1.hits"] + c["cache.l1.misses"]
	v["cache.accesses"] = accesses
	v["mem.nvm_row_hit_ratio"] = ratio(c["mem.nvm_row_hits"], c["mem.nvm_row_misses"])
	v["mem.dram_row_hit_ratio"] = ratio(c["mem.dram_row_hits"], c["mem.dram_row_misses"])

	var rt rtSnap
	var units, windowNs int64
	var gcs []float64
	for _, p := range plain {
		rt.add(p.rt)
		units += p.units
		windowNs += p.windowNs
		gcs = append(gcs, float64(p.rt.gcCycles))
	}
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.gc_cpu_frac"] = div(rt.gcCPU, float64(windowNs)/1e9)
	v["runtime.alloc_bytes_per_unit"] = div(float64(rt.allocBytes), float64(units))
	v["runtime.allocs_per_unit"] = div(float64(rt.allocObjs), float64(units))

	// Host time from the spans.
	n := float64(len(traced))
	var tUnits, tWindow int64
	kindWindow := map[string]int64{}
	for _, p := range traced {
		tUnits += p.units
		tWindow += p.windowNs
		for k, d := range p.kindWindowNs {
			kindWindow[k] += d
		}
	}
	mean := func(name string, scale float64) float64 {
		b := rec.get(name)
		return div(float64(b.total), float64(b.count)) / scale
	}
	meanSelf := func(name string, scale float64) float64 {
		b := rec.get(name)
		return div(float64(b.self()), float64(b.count)) / scale
	}
	v["trace.next_ns"] = mean("trace.next", 1)
	v["kv.get_us"] = mean("kv.get", 1e3)
	v["kv.put_us"] = mean("kv.put", 1e3)
	v["kv.delete_us"] = mean("kv.delete", 1e3)
	v["kv.pause_us"] = mean("kv.pause", 1e3)
	if rec.get("sim.read").count+rec.get("sim.write").count > 0 {
		v["kv.mem_calls_per_tx"] = div(float64(rec.get("sim.read").count+rec.get("sim.write").count), float64(tUnits))
	}
	v["sim.ckpt_us"] = mean("sim.ckpt", 1e3)
	cacheSelf := rec.get("sim.run").self() + rec.get("sim.read").self() + rec.get("sim.write").self()
	v["cache.self_ns_per_access"] = div(float64(cacheSelf), accesses*n)
	v["cache.flush_self_us"] = meanSelf("cache.flush", 1e3)

	var idealNs, idealCalls, newSysNs, newSysCount int64
	for _, k := range kinds {
		p := "ctl." + k + "."
		var self int64
		for _, op := range []string{"read", "write", "due", "begin_ckpt", "drain"} {
			self += rec.get(p + op).self()
		}
		dst := "baseline." + k + "."
		if k == "thynvm" {
			dst = "core."
			v["core.drain_us"] = mean(p+"drain", 1e3)
			v["core.reads"] = div(float64(rec.get(p+"read").count), n)
			v["core.writes"] = div(float64(rec.get(p+"write").count), n)
		}
		v[dst+"read_ns"] = mean(p+"read", 1)
		v[dst+"write_ns"] = mean(p+"write", 1)
		v[dst+"begin_ckpt_us"] = mean(p+"begin_ckpt", 1e3)
		v[dst+"host_frac"] = div(float64(self), float64(kindWindow[k]))
		if k == "idealdram" || k == "idealnvm" {
			for _, op := range []string{"read", "write"} {
				b := rec.get(p + op)
				idealNs += b.total
				idealCalls += b.count
			}
		}
		v["torture.run_ms."+k] = mean("torture.run."+k, 1e6)
		b := rec.get("sim.new_system." + k)
		newSysNs += b.total
		newSysCount += b.count
	}
	v["sim.new_system_us"] = div(float64(newSysNs), float64(newSysCount)) / 1e3
	v["mem.host_ns_per_access"] = div(float64(idealNs), float64(idealCalls))
	v["torture.run_ms.media"] = mean("torture.run.media", 1e6)

	layers := rec.layerSelf()
	var attributed int64
	for _, l := range layerOrder {
		v["share."+l] = div(float64(layers[l]), float64(tWindow))
		attributed += layers[l]
	}
	v["kv.self_frac"] = v["share.kv"]
	v["traced.unattributed_frac"] = div(float64(tWindow-attributed), float64(tWindow))
	perUnit := func(ns, u int64) float64 { return div(float64(ns), float64(u)) }
	v["traced.overhead_frac"] = div(perUnit(tWindow, tUnits), perUnit(windowNs, units)) - 1

	fmt.Printf("traced passes %d: window %.3fs for %d %ss; untraced passes %d: %.3fs for %d\n",
		len(traced), float64(tWindow)/1e9, tUnits, w.unit(), len(plain), float64(windowNs)/1e9, units)
	fmt.Printf("self-time share of the traced window by layer:\n")
	for _, l := range layerOrder {
		fmt.Printf("  %-10s %6.2f%%\n", l, 100*v["share."+l])
	}
	fmt.Printf("  %-10s %6.2f%%\n", "(none)", 100*v["traced.unattributed_frac"])
	fmt.Printf("boundaries (count, inclusive ms, self ms):\n")
	bs := append([]*boundary(nil), rec.bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i].name < bs[j].name })
	for _, b := range bs {
		fmt.Printf("  %-28s %10d %12.3f %12.3f\n", b.name, b.count, float64(b.total)/1e6, float64(b.self())/1e6)
	}

	for _, nu := range perLayer {
		out[nu[0]] = metricValue{v[nu[0]], nu[1]}
	}
}

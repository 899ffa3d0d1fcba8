"""CopierStat: runtime introspection of the Copier service (§5.1's
"debug tool" companion to CopierSanitizer).

Snapshots the whole service — per-client queue depths, pending tasks,
copy/absorption counters, scheduler totals, cgroup weights, ATCache and
dispatcher statistics, thread states — into a plain dict, and renders a
human-readable report.  The snapshot itself comes from
:meth:`CopierService.stats_snapshot`; this module owns only the rendering.

Since the trace bus landed, the snapshot also carries a ``"stages"``
section: the per-stage latency breakdown (submit→ingest, ingest→execute,
execute→complete, submit→complete) that each copy-path layer folds into
the service's :class:`~repro.sim.trace.StageAggregator` at the stage
boundaries the trace bus names, plus task outcomes and thread sleep/wake
accounting.  Useful both for debugging ports (is my
abort actually retiring the task?  where does my latency live?) and for
the benchmarks' narratives.
"""

from repro.sim.trace import STAGE_NAMES

#: Human-readable labels for the pipeline stages, in render order.
STAGE_LABELS = {
    "submit_to_ingest": "submit→ingest",
    "ingest_to_execute": "ingest→execute",
    "execute_to_complete": "execute→complete",
    "submit_to_complete": "submit→complete",
}


def snapshot(service):
    """Return a nested dict describing the service's current state."""
    return service.stats_snapshot()


def render(snap):
    """Format a snapshot as a text report."""
    lines = []
    out = lines.append
    out("CopierStat @ cycle %d" % snap["now"])
    out("  polling=%s scenario_active=%s threads=%d/%d (peak %d)" % (
        snap["polling"], snap["scenario_active"],
        snap["threads"]["active"], snap["threads"]["spawned"],
        snap["threads"]["peak"]))
    d = snap["dispatcher"]
    out("  dispatcher: %d rounds, %d B via DMA, %d B via AVX "
        "(dma=%s absorption=%s)" % (d["rounds"], d["bytes_to_dma"],
                                    d["bytes_to_avx"], d["use_dma"],
                                    d["use_absorption"]))
    a = snap["atcache"]
    out("  atcache: %.1f%% hit rate (%d hits / %d misses, %d invalidations)"
        % (a["hit_rate"] * 100, a["hits"], a["misses"],
           a["invalidations"]))
    if snap["dma"]:
        out("  dma engine: %d B in %d batches (%d busy cycles)" % (
            snap["dma"]["bytes_copied"], snap["dma"]["batches"],
            snap["dma"]["busy_cycles"]))
    out("  dropped tasks: %d" % snap["tasks_dropped"])
    for line in render_overload(snap.get("overload")):
        out(line)
    for line in render_faults(snap.get("faults")):
        out(line)
    for line in render_integrity(snap.get("integrity")):
        out(line)
    for line in render_lifecycle(snap.get("lifecycle")):
        out(line)
    for line in render_stages(snap.get("stages")):
        out(line)
    for line in render_serve(snap.get("serve")):
        out(line)
    for name, group in sorted(snap["cgroups"].items()):
        out("  cgroup %-12s shares=%-4d total=%-10d clients=%d" % (
            name, group["shares"], group["total_copy_length"],
            group["clients"]))
    for name, c in sorted(snap["clients"].items()):
        out("  client %-16s pend=%-3d subm=%-4d done=%-4d abrt=%-3d "
            "absorbed=%dB" % (name, c["pending_tasks"], c["submitted"],
                              c["completed"], c["aborted"],
                              c["bytes_absorbed"]))
        q = c["queues"]
        if any(q.values()):
            out("    queues: uC=%d uS=%d uH=%d kC=%d kS=%d" % (
                q["u_copy"], q["u_sync"], q["u_handler"], q["k_copy"],
                q["k_sync"]))
    return "\n".join(lines)


def render_stages(stages):
    """Render the trace-bus stage section as report lines.

    ``stages`` is the ``"stages"`` entry of a snapshot (or an aggregator's
    ``as_dict()``); returns ``[]`` when absent so old snapshots render.
    """
    if not stages:
        return []
    lines = ["  stage latency (cycles, from the trace bus):"]
    for name in STAGE_NAMES:
        stage = stages["stages"][name]
        lines.append("    %-16s n=%-5d mean=%-10.1f max=%d" % (
            STAGE_LABELS[name], stage["count"], stage["mean"], stage["max"]))
    outcomes = stages["outcomes"]
    threads = stages["threads"]
    lines.append("    outcomes: %d done / %d aborted / %d dropped; "
                 "%d rounds, %d in flight" % (
                     outcomes.get("done", 0), outcomes.get("aborted", 0),
                     outcomes.get("dropped", 0), stages["rounds"],
                     stages["in_flight"]))
    lines.append("    threads: %d sleeps / %d wakes, %d cycles slept" % (
        threads["sleeps"], threads["wakes"], threads["slept_cycles"]))
    return lines


def render_serve(serve):
    """Render the async serving-driver section as report lines.

    ``serve`` is the ``"serve"`` entry of a snapshot (present only when a
    :class:`~repro.serve.driver.SimDriver` is attached to the service);
    returns ``[]`` when absent so non-serving snapshots render unchanged.
    """
    if not serve:
        return []
    lines = ["  serve: pacing=%s steps=%d (%.1f events/step) idle_polls=%d "
             "rounds=%d" % (serve.get("pacing", "?"), serve.get("steps", 0),
                            serve.get("events_per_step", 0.0),
                            serve.get("idle_polls", 0),
                            serve.get("rounds", 0))]
    lines.append("    ops: %d submitted / %d resolved (%d parked); "
                 "sessions %d live (%d opened, %d closed)" % (
                     serve.get("ops_submitted", 0),
                     serve.get("ops_resolved", 0), serve.get("parked", 0),
                     serve.get("sessions_live", 0),
                     serve.get("sessions_opened", 0),
                     serve.get("sessions_closed", 0)))
    return lines


def render_overload(overload):
    """Render the overload-protection section as report lines.

    ``overload`` is the ``"overload"`` entry of a snapshot; returns
    ``[]`` when absent (old snapshots) or when the default ``always``
    policy never shed/rejected/missed and the watchdog never fired, so
    pre-overload reports stay byte-identical.
    """
    if not overload:
        return []
    wd = overload.get("watchdog", {})
    alerts = (wd.get("stall_alerts", 0) + wd.get("starvation_alerts", 0)
              + wd.get("quarantine_alerts", 0))
    interesting = (overload.get("shed_tasks", 0) or overload.get("rejected", 0)
                   or overload.get("cancelled", 0)
                   or overload.get("deadline_misses", 0) or alerts)
    if overload.get("policy", "always") == "always" and not interesting:
        return []
    lines = ["  overload: policy=%s admitted=%d shed=%d (%d B) rejected=%d"
             % (overload["policy"], overload.get("admitted", 0),
                overload.get("shed_tasks", 0), overload.get("shed_bytes", 0),
                overload.get("rejected", 0))]
    lines.append("    cancelled=%d deadline_misses=%d retired=%d" % (
        overload.get("cancelled", 0), overload.get("deadline_misses", 0),
        overload.get("tasks_retired", 0)))
    if wd:
        starved = ", ".join(wd.get("starved_clients", [])) or "-"
        lines.append("    watchdog: %d checks, %d stall / %d starved / "
                     "%d quarantine alerts (starved: %s)" % (
                         wd.get("checks", 0), wd.get("stall_alerts", 0),
                         wd.get("starvation_alerts", 0),
                         wd.get("quarantine_alerts", 0), starved))
    return lines


def render_lifecycle(lifecycle):
    """Render the lifecycle/teardown section as report lines.

    ``lifecycle`` is the ``"lifecycle"`` entry of a snapshot; returns
    ``[]`` when absent (old snapshots) or when no lifecycle event ever
    fired, so steady-state reports stay byte-identical.
    """
    if not lifecycle:
        return []
    interesting = (lifecycle.get("exit_reaped", 0)
                   or lifecycle.get("efault_tasks", 0)
                   or lifecycle.get("deferred_unmaps", 0)
                   or lifecycle.get("processes_reaped", 0)
                   or lifecycle.get("drains", 0)
                   or lifecycle.get("pins_outstanding", 0)
                   or lifecycle.get("draining", False))
    if not interesting:
        return []
    lines = ["  lifecycle: %d procs reaped (%d tasks), %d efault tasks%s" % (
        lifecycle.get("processes_reaped", 0),
        lifecycle.get("exit_reaped", 0),
        lifecycle.get("efault_tasks", 0),
        ", DRAINING" if lifecycle.get("draining") else "")]
    lines.append("    unmaps: %d deferred / %d reclaimed, "
                 "%d pins outstanding" % (
                     lifecycle.get("deferred_unmaps", 0),
                     lifecycle.get("deferred_reclaimed", 0),
                     lifecycle.get("pins_outstanding", 0)))
    if lifecycle.get("drains", 0):
        lines.append("    drains: %d (requeued %d)" % (
            lifecycle.get("drains", 0),
            lifecycle.get("drain_requeued", 0)))
    return lines


def render_faults(faults):
    """Render the fault-injection section as report lines.

    ``faults`` is the ``"faults"`` entry of a snapshot; returns ``[]``
    when absent (old snapshots) or when no plan is armed and nothing was
    recovered, so fault-free reports stay unchanged.
    """
    if not faults:
        return []
    rec = faults["recovery"]
    if not faults["armed"] and not any(rec.values()):
        return []
    lines = []
    if faults["armed"]:
        injected = ", ".join("%s=%d" % (k, v)
                             for k, v in sorted(faults["injected"].items())
                             if v) or "none fired"
        lines.append("  faults: plan=%s seed=%s (%s)" % (
            faults["plan"], faults["seed"], injected))
    lines.append("    recovery: %d/%d dma submits retried ok "
                 "(%d exhausted), %d aborts, %d fallbacks (%d B)" % (
                     rec["dma_submit_retries_ok"], rec["dma_submit_failures"],
                     rec["dma_submit_exhausted"], rec["dma_aborts"],
                     rec["engine_fallbacks"], rec["fallback_bytes"]))
    lines.append("    recovery: %d/%d pins retried ok, %d spurious wakeups%s"
                 % (rec["pin_retries_ok"], rec["pin_failures"],
                    rec["spurious_wakeups"],
                    ", DMA QUARANTINED" if faults["dma_quarantined"] else ""))
    return lines


def render_integrity(integrity):
    """Render the end-to-end integrity section as report lines.

    ``integrity`` is the ``"integrity"`` entry of a snapshot; the key is
    present only when the end-to-end CRC is armed (or something tripped
    it), so reports from unarmed runs stay byte-identical — returns
    ``[]`` when absent.
    """
    if not integrity:
        return []
    lines = ["  integrity: e2e_crc=%s %d checks, %d mismatches "
             "(%d overlap-skips)" % (
                 "on" if integrity.get("e2e_crc") else "off",
                 integrity["crc_checks"], integrity["crc_mismatches"],
                 integrity["overlap_skips"])]
    if integrity["reexec_tasks"] or integrity["quarantines"]:
        lines.append("    repaired: %d tasks (%d B) re-executed host-side, "
                     "%d engine quarantines" % (
                         integrity["reexec_tasks"],
                         integrity["reexec_bytes"],
                         integrity["quarantines"]))
    if integrity["poisoned_tasks"] or integrity.get("dma_bitflips"):
        lines.append("    hardware: %d silent dma bitflips injected, "
                     "%d tasks retired poisoned" % (
                         integrity.get("dma_bitflips", 0),
                         integrity["poisoned_tasks"]))
    return lines


def report(service):
    """snapshot + render in one call."""
    return render(snapshot(service))

"""The machine + kernel bundle shared by every experiment."""

import os

from repro.copier.service import CopierService
from repro.hw.cache import CacheModel
from repro.hw.params import MachineParams
from repro.kernel.process import OSProcess
from repro.mem.addrspace import AddressSpace, copy_range
from repro.mem.pagewalk import PageWalkAddressSpace
from repro.mem.phys import OutOfMemory, PhysicalMemory
from repro.sim import Compute, Environment
from repro.sim.heapengine import HeapEnvironment


def machine_classes():
    """``(environment class, address-space class)`` a machine is built from.

    The production classes, unless a differential-oracle knob selects a
    reference class: ``COPIER_SLOWHEAP=1`` the historic heapq event loop
    (:class:`HeapEnvironment`), ``COPIER_SLOWPATH=1`` the historic
    per-page walkers (:class:`PageWalkAddressSpace`).  Neither changes
    the simulated machine.  This is the one place either knob is read.
    """
    env_cls = (HeapEnvironment if os.environ.get("COPIER_SLOWHEAP") == "1"
               else Environment)
    aspace_cls = (PageWalkAddressSpace
                  if os.environ.get("COPIER_SLOWPATH") == "1"
                  else AddressSpace)
    return env_cls, aspace_cls


class System:
    """One simulated machine: cores, memory, kernel, optional Copier.

    ``copier=True`` reserves the machine's last core(s) for the Copier
    service ("Copier uses one dedicated core to copy", §6); with
    ``copier=False`` the system is the paper's baseline Linux and every
    copy is synchronous.
    """

    def __init__(self, n_cores=4, params=None, phys_frames=65536,
                 fragmented=False, copier=True, timeslice=100_000,
                 copier_kwargs=None):
        self.params = params if params is not None else MachineParams()
        # Construction recipe, kept so repro.ckpt can rebuild an identical
        # shell before overlaying the serialized machine state.
        self._init_kwargs = dict(n_cores=n_cores, phys_frames=phys_frames,
                                 fragmented=fragmented, copier=bool(copier),
                                 timeslice=timeslice)
        env_cls, aspace_cls = machine_classes()
        self.env = env_cls(n_cores=n_cores, timeslice=timeslice)
        self.phys = PhysicalMemory(phys_frames, fragmented=fragmented)
        self.kernel_as = aspace_cls(self.phys, name="kernel")
        self.cache = CacheModel(self.params)
        self.processes = []
        self.copier = None
        if copier:
            kwargs = dict(copier_kwargs or {})
            kwargs.setdefault("dedicated_cores", [n_cores - 1])
            self.copier = CopierService(self.env, self.params, **kwargs)

    # ------------------------------------------------------------ processes

    def create_process(self, name, cgroup="root", queue_capacity=1024):
        # Every aspace of one machine is of the kernel aspace's class.
        aspace = type(self.kernel_as)(self.phys, name=name)
        client = None
        if self.copier is not None:
            client = self.copier.create_client(
                aspace, name=name, cgroup=cgroup,
                queue_capacity=queue_capacity)
        proc = OSProcess(self, aspace, client, name=name)
        self.processes.append(proc)
        return proc

    def exit_process(self, proc):
        """Cleanly exit ``proc`` (see :meth:`OSProcess.exit`)."""
        return proc.exit()

    def kill_process(self, proc, exc=None):
        """Kill ``proc`` and reap its in-flight copies (chaos harness,
        OOM-killer-style teardown)."""
        return proc.kill(exc)

    def leaked_pins(self):
        """Outstanding pins across the kernel and every process aspace
        (live and departed), deduplicated by asid."""
        seen = {self.kernel_as.asid: self.kernel_as}
        for proc in self.processes:
            seen[proc.aspace.asid] = proc.aspace
        if self.copier is not None:
            for aspace in self.copier._all_aspaces():
                seen[aspace.asid] = aspace
        return sum(a.pins_outstanding() for a in seen.values())

    # ------------------------------------------------------- timing helpers

    def app_compute(self, proc, cycles, tag="app", instructions=None):
        """App computation with cache-pollution CPI inflation (§6.3.5)."""
        inflated = self.cache.charge(proc.cache_key, cycles)
        return Compute(inflated, tag=tag,
                       instructions=cycles if instructions is None else instructions)

    def sync_copy(self, proc, src_as, src_va, dst_as, dst_va, nbytes,
                  engine="erms", warm=False, tag="copy"):
        """Synchronous in-context copy: charges the caller and pollutes its
        cache — the baseline path Copier replaces.

        Page faults taken by the copy (demand-zero on fresh buffers, CoW)
        land on the caller's critical path, unlike Copier's proactive
        handling which resolves them in the service's context (§4.5.4).
        """
        if nbytes:
            p = self.params
            fault_cycles = 0
            resolutions = src_as.ensure_mapped(src_va, nbytes, write=False)
            resolutions += dst_as.ensure_mapped(dst_va, nbytes, write=True)
            for kind in resolutions:
                fault_cycles += (p.fault_entry_cycles + p.page_alloc_cycles
                                 + p.fault_exit_cycles)
                if kind == "cow_copy":
                    fault_cycles += p.cpu_copy_cycles(4096, engine="erms")
            if fault_cycles:
                yield Compute(fault_cycles, tag="fault")
            cycles = p.cpu_copy_cycles(nbytes, engine=engine, warm=warm)
            yield Compute(cycles, tag=tag)
            copy_range(src_as, src_va, dst_as, dst_va, nbytes)
            self.cache.pollute(proc.cache_key, nbytes)

    # ----------------------------------------------------------- skb memory

    def alloc_kernel_buffer(self, nbytes, contiguous=True):
        """Allocate a kernel buffer (socket buffer, binder buffer...)."""
        try:
            return self.kernel_as.mmap(nbytes, populate=True,
                                       contiguous=contiguous,
                                       name="kbuf")
        except OutOfMemory:
            # No contiguous run left: fall back to scattered frames (the
            # buffer just stops being a DMA candidate).  Anything else is
            # a real bug and must propagate.
            return self.kernel_as.mmap(nbytes, populate=True, name="kbuf")

    def free_kernel_buffer(self, va, nbytes):
        self.kernel_as.munmap(va, nbytes)

    def run_all(self, procs, limit=None):
        """Run the event loop until every process in ``procs`` terminates."""
        for proc in procs:
            self.env.run_until(proc.terminated, limit=limit)
        return [p.result for p in procs]

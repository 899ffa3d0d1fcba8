"""Shared fixtures for Copier core tests."""

import pytest

from repro.copier import CopierService
from repro.hw import MachineParams
from repro.kernel.system import machine_classes
from repro.mem import PhysicalMemory


class Setup:
    """A small machine with the Copier service on its last core, built
    from the same classes as :class:`~repro.kernel.System`: the oracle
    knobs select the reference loop and address space here too."""

    def __init__(self, n_cores=2, n_frames=4096, fragmented=False, **service_kwargs):
        env_cls, aspace_cls = machine_classes()
        self.env = env_cls(n_cores=n_cores)
        self.params = service_kwargs.pop("params", MachineParams())
        self.phys = PhysicalMemory(n_frames, fragmented=fragmented)
        self.service = CopierService(self.env, self.params, **service_kwargs)
        self.aspace = aspace_cls(self.phys, name="app")
        self.client = self.service.create_client(self.aspace, name="app")

    def run_process(self, generator, limit=50_000_000):
        """Spawn an app process on core 0 and run until it finishes."""
        proc = self.env.spawn(generator, name="app", affinity=0)
        self.env.run_until(proc.terminated, limit=limit)
        return proc.result


@pytest.fixture
def setup():
    return Setup()

"""The EMC-Y processing element.

A single-chip pipelined RISC processor combining register-based
execution with packet-based dataflow synchronisation.  The units:

* **SU** (switching unit) — the network attachment point; the network
  hands each arriving packet straight to
  :meth:`~repro.processor.ibu.InputBufferUnit.receive`.
* **IBU** (input buffer unit) — two priority FIFOs of 8 packets with
  overflow to memory; services remote reads through the **by-passing
  DMA** path without consuming EXU cycles (EM-X's key feature).
* **MU** (matching unit) — direct matching / thread invocation; its
  five-step cost is charged on every thread start and resume.
* **EXU** (execution unit) — runs thread bursts: charges instruction
  cycles, generates packets, performs context switches.
* **OBU** (output buffer unit) — injects packets (from the EXU *and*
  from the IBU's DMA replies) into the network.
* **MCU** (memory control unit) — word access to the 4 MB local memory.
"""

from .emcy import EMCYProcessor
from .exu import ExecutionUnit
from .ibu import InputBufferUnit
from .obu import OutputBufferUnit

__all__ = ["EMCYProcessor", "ExecutionUnit", "InputBufferUnit", "OutputBufferUnit"]

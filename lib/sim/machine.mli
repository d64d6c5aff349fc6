(** The SoC machine: runs a {!Program.t} on a platform.

    Instantiates byte-level L1/L2 memories, preloads weight images, binds
    the network inputs, executes every step (accelerator schedules through
    the compiled {!Plan} when one is given, else through the {!Exec_accel}
    oracle; fused CPU kernels through the reference interpreter with
    modeled cycles), and reads the output buffer back. The returned
    report carries per-step and aggregate counters for the latency tables. *)

type report = {
  per_step : (string * Counters.t) list;  (** in execution order *)
  totals : Counters.t;
}

val accel_steps_peak : report -> int
(** Sum of accelerator busy cycles (compute + weight load) over all
    offloaded steps — the paper's "peak" number. *)

val run :
  platform:Arch.Platform.t ->
  ?trace:Trace.t ->
  ?faults:Fault.Session.t ->
  ?retry_budget:int ->
  ?plan:Plan.t ->
  Program.t ->
  inputs:(string * Tensor.t) list ->
  Tensor.t * report
(** Execute the program. With [plan] (it must have been built for this
    very program, physical equality — checked on every call), every
    accelerator step runs through the compiled fast path on the calling
    domain's reused plan arena, fault session or not. Without [plan],
    fresh memories are allocated and every accelerator step runs through
    the {!Exec_accel} oracle. Both paths give byte-identical outputs,
    counters, traces, high-water marks and fault-session draws.

    When [trace] is given, each step contributes one interval on the
    ["steps"] track (whose summed durations equal [totals.wall]), per-tile
    engine/DMA intervals, and L1/L2 occupancy high-water samples on the
    ["mem"] track. Tracing never changes the computation: outputs and counters
    are bit-identical with and without it.

    When [faults] is given, the run becomes an injection campaign: every
    DMA transfer, weight load and tile compute consults the plan (see
    {!Resilience}), and once per step each memory may suffer bit rot in
    its occupied region. A session backed by {!Fault.Plan.empty} — or
    omitting [faults] — is a strict no-op: identical outputs, counters
    and trace events. [retry_budget] (default 3) bounds re-issues per
    operation.
    @raise Fault.Session.Unrecovered when a detected fault exhausts the
    retry budget (the modeled runtime aborts rather than return corrupt
    data). @raise Invalid_argument on missing/mistyped inputs, a
    malformed program or a [plan] built for another program.
    @raise Mem.Fault on memory corruption (a compiler bug). *)

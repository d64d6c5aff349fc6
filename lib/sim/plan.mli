(** Compiled execution plans: the simulator's per-request fast path.

    [build] resolves, once per artifact, everything {!Exec_accel} recomputes
    per request — tile instance dims, L1 slot layouts, DMA window geometry
    (flattened to coalesced blit lists), weight/bias slice extents (decoded
    to flat arrays straight from the L2 weight image), padded-input shapes,
    per-step counters and the trace timeline — so that the per-request loop
    is pure data movement and kernel math over preallocated scratch.

    Which conv kernel runs is decided by the weight dtype. Int8 convs
    multiply over the decoded dense weights. Ternary convs (DIANA's analog
    array) keep no dense copy: per output channel of the tile the build
    stores the offsets of the +1 taps and of the -1 taps into the
    zero-padded input, [((grp * cg + ci) * h * w) + (ky * w) + kx], and
    drops the zero taps, so each output pixel is a sum of adds minus a sum
    of subtracts with no multiplies. This is exact: every dropped tap
    contributes [x * 0 = 0], every kept one [x * (+-1) = +-x], and integer
    addition does not depend on order. [stats.ternary_tiles] counts the
    tiles on this kernel.

    Scratch lives in a per-domain {e arena} (keyed off the plan with
    [Domain.DLS]): reused L2/L1 memories plus per-tile padded-input,
    accumulator and output buffers, reset between requests instead of
    reallocated. A plan is therefore safe to share across domains.

    Byte-identity contract: for every run of a well-formed program, with
    or without a fault session, the fast path produces exactly the slow
    path's output bytes, per-step cycle counters, trace events, memory
    high-water marks and fault-session draws. The plan is the production
    executor; the slow path ({!Exec_accel}) is the conformance oracle that
    [htvmc check], the golden snapshots and the plan differential tests
    hold it to. Faults stay per request: the plan consults the session at
    the oracle's sites in the oracle's order and adds the drawn retry and
    stall cycles to its precomputed counters. *)

type t

type stats = {
  accel_steps : int;  (** accelerator steps covered by the plan *)
  tiles : int;  (** precomputed tile instances across all steps *)
  scratch_words : int;  (** per-arena scratch footprint, in [int] words *)
  image_bytes : int;  (** size of the captured L2 weight image *)
  ternary_tiles : int;
      (** conv tiles run by the ternary add/sub tap kernel rather than the
          dense multiply loop *)
}

val build : platform:Arch.Platform.t -> Program.t -> t
(** Resolve the program against the platform. Performs the slow path's
    per-run validation eagerly; malformed steps are recorded and re-raised
    with the slow path's exception when the step is executed.
    @raise Invalid_argument when the program fails {!Program.validate}.
    @raise Mem.Fault when a weight or bias image lies outside L2. *)

val program : t -> Program.t
(** The program this plan was built for ({!Machine.run} enforces physical
    equality). *)

val stats : t -> stats

val ternary_conv2d :
  input:Tensor.t ->
  weights:Tensor.t ->
  stride:int * int ->
  groups:int ->
  pads:int * int * int * int ->
  Tensor.t
(** The plan's ternary tap kernel as a standalone convolution, for
    differential tests against {!Nn.Kernels.conv2d}: zero-pads [input]
    ([(top, bottom, left, right)], which may be asymmetric as in a tile at
    a layer edge), builds the tap tables of [weights] and runs the add/sub
    loop. Returns the [I32] accumulator [[|k; oh; ow|]].
    @raise Invalid_argument when [weights] are not ternary or the geometry
    is inconsistent. *)

val checkout : ?fresh:bool -> t -> Mem.t * Mem.t
(** [(l2, l1)] of the calling domain's arena, rewound to the exact state a
    fresh {!Machine.run} would build: L2 holding the weight images with its
    post-load high-water mark, L1 poisoned with [0x5A]. The first call in a
    domain allocates the arena; [~fresh:true] discards any cached arena and
    allocates anew (benchmarks use it to measure the no-reuse path: a
    following {!Machine.run} with this plan runs on the new arena). *)

val run_accel_step :
  t ->
  step_index:int ->
  l2:Mem.t ->
  l1:Mem.t ->
  ?trace:Trace.t ->
  ?faults:Fault.Session.t ->
  ?retry_budget:int ->
  ?l2_rotted:bool ->
  t0:int ->
  unit ->
  Counters.t
(** Execute the accelerator step at [step_index] of the plan's program: re-
    play the precomputed DMA blits, run the flat kernels over the domain
    arena's scratch, encode the result, replay the recorded trace timeline
    shifted to cycle [t0], and return a fresh copy of the step's counters.

    With [faults], every tile consults the session exactly as
    {!Exec_accel.run} does (input DMA, weight load, engine compute — a
    silent flip corrupts the tile's L1 output block — then output DMA),
    fault events land on the ["fault"] track after the fault-free wall,
    and [retry_cycles + fault_stall] extend the returned wall.
    [retry_budget] defaults to 3. [l2_rotted] (default false) says L2 bit
    rot fired earlier in this request: the step then re-decodes its
    weights and bias (and rebuilds its tap tables) from [l2], as the
    oracle reads them on every tile.
    @raise Invalid_argument when the step is a CPU step.
    @raise Fault.Session.Unrecovered past the retry budget.
    @raise Mem.Fault / [Invalid_argument] with the slow path's exception
    when the step was recorded as malformed at build time. *)

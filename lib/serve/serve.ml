(* Batched inference serving over a simulated DIANA fleet.

   One private engine serves both entry points. [run] (one model) and
   [mt_run] (a model registry and request classes) are front ends: each
   validates its config, generates its arrival stream, hands the engine
   its differences as data, and renders the engine's result into its own
   report, tally and metric names. The engine runs each stage once, and
   its determinism guarantee is structural rather than accidental:

   1. Generation + admission are pure functions of the config seed (or a
      replayed trace): the request stream comes from one Util.Rng stream,
      and the per-window ingress cap decides shedding from arrivals
      alone — never from how fast the fleet drains.
   2. Execution is a pure function of the request: each request runs on
      a fresh simulated machine under its own fault session (seed
      derived from plan seed + request id), fanned out over a Util.Pool
      whose map is order-preserving. Outputs, service cycles and fault
      tallies cannot depend on routing, fleet size or host parallelism.
   3. Batch assembly happens before any instance is chosen. It fixes
      each request's predicted (queueing-free) sojourn; class-SLO
      shedding, the batch autotuner and the predicted health plane read
      only that timeline.
   4. Scheduling is plain arithmetic over the execution records:
      placement pools, swap costs, earliest-free eligible routing,
      per-instance clocks, degradation bookkeeping and the trace all
      happen on the submitting domain. Only this layer sees the worker
      count, and only serving metrics (throughput, waits, utilization)
      flow out of it — the functional tallies come from layers 1–3.

   The health lifecycle (lib/health) keeps that split by running on two
   planes, mirroring the predicted/observed SLO accounting:

   - The *predicted* plane is one logical Health.t advanced along the
     queueing-free batch timeline (window closes, dispatch overheads,
     exact service cycles). It never sees the fleet shape, so the
     health-aware admission cap, the health-shed set, the predicted
     fail-open count, readmission totals and every htvm_health_*
     cycles-track counter stay byte-identical at any workers/jobs and
     may appear in the tally.
   - The *observed* plane is one Health.t per instance, fed by the
     faults of the batches actually routed to it. It decides routing
     eligibility, charges probe cycles to the probed instance, and
     surfaces only through the summary, the per-instance JSON and the
     sched metrics track — like makespan and throughput. *)

module C = Htvm.Compile
module J = Trace.Json

type arrival = Closed | Poisson of { mean_gap : int }

type config = {
  workers : int;
  max_batch : int;
  queue_depth : int;
  requests : int;
  seed : int;
  arrival : arrival;
  window : int;
  dispatch_overhead : int;
  plan : Fault.Plan.t;
  retry_budget : int;
  degrade_after : int option;
  degraded_instances : int list;
  jobs : int;
  slo_sojourn : int option;
  memoize : bool;
  input_mix : int;
  health : Health.config option;
}

let default =
  {
    workers = 4;
    max_batch = 8;
    queue_depth = 32;
    requests = 64;
    seed = 42;
    arrival = Closed;
    window = 0;
    dispatch_overhead = 1_000;
    plan = Fault.Plan.empty;
    retry_budget = 3;
    degrade_after = None;
    degraded_instances = [];
    jobs = 1;
    slo_sojourn = None;
    memoize = false;
    input_mix = 0;
    health = None;
  }

type request = { r_id : int; r_input_seed : int; r_arrival : int }

type outcome =
  | Served of {
      o_instance : int;
      o_batch : int;
      o_start : int;
      o_finish : int;
      o_service : int;
      o_wait : int;
      o_digest : string;
      o_detected : int;
      o_silent : int;
      o_retries : int;
      o_pred_sojourn : int;
    }
  | Rejected of { o_window : int }
  | Aborted of { o_instance : int; o_batch : int; o_site : string; o_attempts : int }

type percentiles = {
  p_count : int;
  p_min : int;
  p_mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p_max : int;
}

let percentiles_of xs =
  match List.sort compare xs with
  | [] -> { p_count = 0; p_min = 0; p_mean = 0.0; p50 = 0; p95 = 0; p99 = 0; p_max = 0 }
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pick p =
        (* nearest rank in exact integer arithmetic: the smallest rank
           with 100 * rank >= p * n, i.e. ceil(p*n/100) — no float
           rounding at bucket edges (n = 100 must give rank p, not
           p ± 1). *)
        let rank = ((p * n) + 99) / 100 in
        a.(Util.Ints.clamp ~lo:0 ~hi:(n - 1) (rank - 1))
      in
      {
        p_count = n;
        p_min = a.(0);
        p_mean = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n;
        p50 = pick 50;
        p95 = pick 95;
        p99 = pick 99;
        p_max = a.(n - 1);
      }

(* Observed-plane lifecycle stats of one instance's Health.t machine. *)
type health_stat = {
  hs_state : Health.state;
  hs_transitions : int;
  hs_readmissions : int;
  hs_relapses : int;
  hs_probes_passed : int;
  hs_probes_failed : int;
  hs_probe_cycles : int;
}

type instance_stat = {
  i_id : int;
  i_batches : int;
  i_served : int;
  i_aborted : int;
  i_busy : int;
  i_utilization : float;
  i_faults : int;
  i_degraded_at : int option;
  i_health : health_stat option;
  i_totals : Sim.Counters.t;
}

(* SLO accounting. Predicted violations compare the queueing-free
   sojourn — dispatch window close + dispatch overhead + in-batch
   service prefix, minus arrival — against the target, so they are a
   pure function of the seed (batch assembly precedes routing) and live
   in the tally. Observed violations compare the scheduled finish and
   legitimately move with the fleet shape. Predicted sojourn is a lower
   bound on observed sojourn, so predicted violations are a subset. *)
type slo = {
  s_target : int;
  s_pred_violations : int;
  s_observed_violations : int;
  s_pred_violation_rate : float;  (* predicted violations / served *)
}

(* Health-lifecycle accounting. The h_pred_* fields come from the
   predicted plane (workers/jobs-invariant, in the tally); h_shed is the
   health-aware admission's shed count (same plane). The observed
   counterparts live in instance_stat.i_health and r_fail_open. *)
type health_summary = {
  h_config : Health.config;  (* resolved: autos filled from the probe *)
  h_pred_state : Health.state;
  h_pred_transitions : int;
  h_pred_readmissions : int;
  h_pred_relapses : int;
  h_pred_probe_cycles : int;
  h_pred_fail_open : int;
  h_shed : int;
}

type report = {
  r_config : config;
  r_window : int;
  r_mean_gap : int;
  r_outcomes : (request * outcome) list;
  r_served : int;
  r_rejected : int;
  r_aborted : int;
  r_shed_rate : float;
  r_service : percentiles;
  r_sojourn : percentiles;
  r_makespan : int;
  r_throughput_rps : float;
  r_instances : instance_stat list;
  r_slo : slo option;
  r_health : health_summary option;
  r_fail_open : int;  (* observed fail-open dispatches (fleet-shaped) *)
  r_memo_hits : int;
  r_memo_misses : int;
  r_metrics : Metrics.snapshot;
}

(* --- multi-tenant types --------------------------------------------- *)

type model = {
  m_name : string;
  m_artifact : C.artifact;
  m_graph : Ir.Graph.t;
}

type model_class = {
  k_name : string;
  k_model : string;
  k_slo : int option;
  k_weight : int;
}

type trace_entry = {
  t_cycle : int;
  t_class : string;
  t_seed : int;
  t_line : int;
}

type mt_arrival =
  | Mt_closed
  | Mt_poisson of { mean_gap : int }
  | Mt_diurnal of { mean_gap : int; period : int }
  | Mt_bursty of { mean_gap : int; burst : int }
  | Mt_replay of trace_entry list

type placement = Pinned | Swap

type mt_config = {
  mt_workers : int;
  mt_max_batch : int;
  mt_queue_depth : int;
  mt_requests : int;
  mt_seed : int;
  mt_arrival : mt_arrival;
  mt_window : int;
  mt_dispatch_overhead : int;
  mt_swap_overhead : int;
  mt_placement : placement;
  mt_jobs : int;
  mt_degraded_instances : int list;
  mt_health : Health.config option;
}

let mt_default =
  {
    mt_workers = 4;
    mt_max_batch = 8;
    mt_queue_depth = 32;
    mt_requests = 64;
    mt_seed = 42;
    mt_arrival = Mt_closed;
    mt_window = 0;
    mt_dispatch_overhead = 1_000;
    mt_swap_overhead = 5_000;
    mt_placement = Swap;
    mt_jobs = 1;
    mt_degraded_instances = [];
    mt_health = None;
  }

type mt_request = {
  q_id : int;
  q_class : int;  (* index into the class list *)
  q_input_seed : int;
  q_arrival : int;
}

type mt_outcome =
  | Mt_served of {
      mo_instance : int;
      mo_batch : int;
      mo_start : int;
      mo_finish : int;
      mo_service : int;
      mo_digest : string;
      mo_pred_sojourn : int;
    }
  | Mt_shed_queue of { mo_window : int }
  | Mt_shed_slo of { mo_pred_sojourn : int }

type class_stat = {
  cs_name : string;
  cs_model : string;
  cs_slo : int option;
  cs_weight : int;
  cs_requests : int;
  cs_served : int;
  cs_shed_queue : int;
  cs_shed_slo : int;
  cs_observed_violations : int;
  cs_service : percentiles;
}

type mt_instance_stat = {
  mi_id : int;
  mi_batches : int;
  mi_served : int;
  mi_busy : int;
  mi_swaps : int;
  mi_utilization : float;
  mi_model : string option;
  mi_health : health_stat option;
}

type mt_report = {
  mt_cfg : mt_config;
  mt_class_list : model_class list;
  mt_resolved_window : int;
  mt_resolved_gap : int;
  mt_batch : int;  (** resolved batch size (autotuned when [mt_max_batch = 0]) *)
  mt_outcomes : (mt_request * mt_outcome) list;
  mt_served : int;
  mt_shed_queue : int;
  mt_shed_slo : int;
  mt_swaps : int;
  mt_class_stats : class_stat list;
  mt_service : percentiles;
  mt_sojourn : percentiles;
  mt_makespan : int;
  mt_throughput_rps : float;
  mt_fail_open : int;
  mt_instances : mt_instance_stat list;
  mt_metrics : Metrics.snapshot;
}

(* Typed errors, shared between the single-tenant and multi-tenant
   surfaces: the mt path returns them from [mt_run]; the single-tenant
   path diagnoses config violations through [validate] (callers like
   [htvmc serve] print the message and exit nonzero) while [run] itself
   keeps its raising contract for programmatic misuse. *)
type mt_error =
  | Unknown_model of { class_name : string; model : string }
  | Unknown_class of { class_name : string; context : string }
  | Bad_trace of { line : int; reason : string }
  | Bad_config of string

let mt_error_to_string = function
  | Unknown_model { class_name; model } ->
      Printf.sprintf "class %S names model %S, which is not in the registry"
        class_name model
  | Unknown_class { class_name; context } ->
      Printf.sprintf "%s references class %S, which is not configured" context
        class_name
  | Bad_trace { line; reason } ->
      Printf.sprintf "arrival trace line %d: %s" line reason
  | Bad_config msg -> msg

(* --- shared building blocks ------------------------------------------ *)

(* One exponential inter-arrival gap. The uniform draw is an integer
   grid point, so the stream is reproducible without trusting float
   rounding across draws. *)
let exp_gap rng ~mean =
  let u = (float_of_int (Util.Rng.int rng 1_000_000) +. 1.0) /. 1_000_001.0 in
  max 0 (int_of_float (-.float_of_int mean *. log u))

let digest_tensor t =
  let b = Buffer.create (16 + (Tensor.numel t * 4)) in
  Buffer.add_string b (Tensor.Dtype.to_string (Tensor.dtype t));
  Buffer.add_char b '|';
  Array.iter
    (fun d ->
      Buffer.add_string b (string_of_int d);
      Buffer.add_char b 'x')
    (Tensor.shape t);
  Buffer.add_char b '|';
  for i = 0 to Tensor.numel t - 1 do
    Buffer.add_string b (string_of_int (Tensor.get_flat t i));
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Each request owns an independent fault campaign: same rules, a seed
   derived from the plan seed and the request id. This is what divorces
   a request's faults from the instance that happens to serve it. *)
let request_plan plan r_id =
  { plan with Fault.Plan.seed = plan.Fault.Plan.seed + ((r_id + 1) * 1_000_003) }

(* Fill a health config's auto fields from the probe request's service
   time: probation two probe-services, probes every quarter service
   costing a tenth, escalation capped at 8 probation windows. A pure
   function of (config, artifact, seed), like the window auto. *)
let resolve_health hc ~probe_cycles =
  let probation =
    if hc.Health.probation_window > 0 then hc.Health.probation_window
    else 2 * probe_cycles
  in
  let resolved =
    {
      hc with
      Health.probation_window = probation;
      probe_interval =
        (if hc.Health.probe_interval >= 0 then hc.Health.probe_interval
         else max 1 (probe_cycles / 4));
      probe_cost =
        (if hc.Health.probe_cost > 0 then hc.Health.probe_cost
         else max 1 (probe_cycles / 10));
      backoff_cap =
        (if hc.Health.backoff_cap > 0 then hc.Health.backoff_cap
         else 8 * probation);
    }
  in
  match Health.validate resolved with
  | Ok () -> Ok resolved
  | Error msg -> Error msg

let health_stat_of m =
  {
    hs_state = Health.state m;
    hs_transitions = List.length (Health.transitions m);
    hs_readmissions = Health.readmissions m;
    hs_relapses = Health.relapses m;
    hs_probes_passed = Health.probes_passed m;
    hs_probes_failed = Health.probes_failed m;
    hs_probe_cycles = Health.probe_cycles m;
  }

(* The probe-free half of lifecycle validation, shared by [validate],
   [run] and [mt_run]. Auto sentinels resolve against the probe's
   service time, which is at least one cycle, and every resolved field
   grows with it — so a config that fails at one probe cycle fails at
   any. What remains for the probe is an explicit [backoff_cap] below an
   auto [probation_window]. *)
let check_health hc = Result.map ignore (resolve_health hc ~probe_cycles:1)

let cycle_buckets =
  [ 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000; 3_000_000; 10_000_000 ]

(* --- the engine -------------------------------------------------------- *)

(* What a front end tells the engine beyond an [mt_config]. [mt_run]
   passes [no_extras]: no fault plan, no memoization, no one-way
   degradation and no predicted health plane. *)
type extras = {
  x_plan : Fault.Plan.t;  (* per-request fault campaign *)
  x_retry_budget : int;
  x_memoize : bool;  (* share one execution per distinct (model, input) *)
  x_degrade_after : int option;  (* one-way degradation without a lifecycle *)
  x_pred_health : bool;  (* also run the predicted health plane *)
}

let no_extras =
  {
    x_plan = Fault.Plan.empty;
    x_retry_budget = default.retry_budget;
    x_memoize = false;
    x_degrade_after = None;
    x_pred_health = false;
  }

type exec =
  | Done of {
      e_digest : string;
      e_service : int;
      e_detected : int;
      e_silent : int;
      e_retries : int;
      e_totals : Sim.Counters.t;
    }
  | Abort of { a_site : string; a_attempts : int; a_detected : int; a_silent : int }

let execute x m q =
  let inputs = Models.Zoo.random_input ~seed:q.q_input_seed m.m_graph in
  let session =
    if Fault.Plan.is_empty x.x_plan then None
    else Some (Fault.Session.create (request_plan x.x_plan q.q_id))
  in
  let fault_stats () =
    match session with
    | None -> (0, 0, 0)
    | Some s ->
        let st = Fault.Session.stats s in
        (st.Fault.Session.detected, st.Fault.Session.silent, st.Fault.Session.retries)
  in
  match
    C.run ?faults:session ~retry_budget:x.x_retry_budget m.m_artifact ~inputs
  with
  | out, report ->
      let detected, silent, retries = fault_stats () in
      Done
        {
          e_digest = digest_tensor out;
          e_service = C.full_cycles report;
          e_detected = detected;
          e_silent = silent;
          e_retries = retries;
          e_totals = report.Sim.Machine.totals;
        }
  | exception Fault.Session.Unrecovered { site; attempts } ->
      let detected, silent, _ = fault_stats () in
      Abort
        { a_site = site; a_attempts = attempts; a_detected = detected; a_silent = silent }

let service_of = function Done e -> e.e_service | Abort _ -> 0

let faults_of = function
  | Done e -> e.e_detected + e.e_silent
  | Abort a -> a.a_detected + a.a_silent

(* Group [xs] by [key]: groups in first-appearance order, members in list
   order. *)
let group_by key xs =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some cell -> cell := x :: !cell
      | None ->
          Hashtbl.add tbl k (ref [ x ]);
          order := k :: !order)
    xs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

(* A request's fate in the engine; each front end renders it into its
   own outcome type. *)
type fate =
  | Ran of {
      instance : int;
      batch : int;
      start : int;
      finish : int;
      pred : int;  (* predicted queueing-free sojourn *)
      exec : exec;
    }
  | Shed_queue of int  (* window whose ingress buffer was full *)
  | Shed_health of int  (* window whose cap the predicted plane halved *)
  | Shed_slo of int  (* predicted sojourn that broke the class SLO *)

(* One fleet instance: clock, books, resident model and lifecycle. *)
type instance = {
  id : int;
  mutable free_at : int;
  mutable busy : int;
  mutable served : int;
  mutable aborted : int;
  mutable batches : int;
  mutable faults : int;
  mutable swaps : int;
  mutable loaded : int option;  (* resident model *)
  mutable degraded_at : int option;
  mutable probe_cyc : int;  (* observed-plane probe cycles charged *)
  hm : Health.t option;  (* observed-plane machine (health mode only) *)
  totals : Sim.Counters.t;
}

(* In the rotation at cycle [t]: the lifecycle decides when there is
   one; otherwise an instance is out from its degradation cycle on (cycle
   0 when degraded at boot). *)
let eligible_at i t =
  match i.hm with
  | Some m -> Health.eligible m
  | None -> ( match i.degraded_at with None -> true | Some d -> t < d)

(* Process the instance's pending health events (cooldown expiry, probes —
   all scheduled at or before [now], so they never delay a batch start)
   and charge the probe cycles to it. *)
let advance i now =
  match i.hm with
  | None -> ()
  | Some m ->
      let pc = Health.advance m ~now in
      i.busy <- i.busy + pc;
      i.probe_cyc <- i.probe_cyc + pc

type engine_result = {
  g_window : int;  (* resolved dispatch window; 0 in closed mode *)
  g_gap : int;  (* resolved mean gap; 0 without a gap *)
  g_health : Health.config option;  (* resolved lifecycle config *)
  g_batch : int;  (* resolved batch size *)
  g_batches : int;
  g_fates : (mt_request * fate) list;  (* in request order *)
  g_instances : instance array;
  g_pred : Health.t option;  (* the predicted plane's machine *)
  g_pred_fail_open : int;
  g_fail_open : int;  (* observed: dispatches with no eligible instance *)
  g_memo_hits : int;
  g_memo_misses : int;
  g_sched : (int * float list) list;  (* fleet state at each window close *)
  g_makespan : int;
  g_throughput : float;
}

(* The engine. [models] are the referenced models (dense indices);
   [classes.(c)] is class [c]'s model index and shedding SLO; [generate]
   builds the arrival stream from the resolved gap and window. *)
let engine ?trace cfg x ~models ~classes ~generate =
  let n_models = Array.length models in
  let open_loop = match cfg.mt_arrival with Mt_closed -> false | _ -> true in
  (* Auto window / gap / lifecycle probe: one fault-free execution of a
     seed-derived payload per model, the largest wins. A pure function of
     (models, seed) — independent of the fleet, so auto values never leak
     the worker count into the arrival process. *)
  let probe =
    lazy
      (Array.fold_left
         (fun acc m ->
           let inputs = Models.Zoo.random_input ~seed:cfg.mt_seed m.m_graph in
           let _, rep = C.run m.m_artifact ~inputs in
           max acc (max 1 (C.full_cycles rep)))
         1 models)
  in
  let gap =
    match cfg.mt_arrival with
    | Mt_closed | Mt_replay _ -> 0
    | Mt_poisson { mean_gap } | Mt_diurnal { mean_gap; _ } | Mt_bursty { mean_gap; _ } ->
        if mean_gap > 0 then mean_gap else max 1 (Lazy.force probe / 2)
  in
  let window =
    if not open_loop then 0
    else if cfg.mt_window > 0 then cfg.mt_window
    else Lazy.force probe
  in
  let health =
    match cfg.mt_health with
    | None -> Ok None
    | Some hc ->
        Result.map Option.some (resolve_health hc ~probe_cycles:(Lazy.force probe))
  in
  match health with
  | Error msg -> Error (Bad_config msg)
  | Ok health ->
  let requests = generate ~gap ~window in
  let fates = Array.make (List.length requests) None in
  let model_of q = fst classes.(q.q_class) in
  let shed_event q name w =
    Trace.interval trace ~track:"serve" ~cat:"serve" ~ts:q.q_arrival ~dur:0
      ~args:[ ("request", J.Int q.q_id); ("window", J.Int w) ]
      name
  in
  (* Admission: per dispatch window, the first [mt_queue_depth] arrivals
     are buffered, the rest shed. Requests are already in arrival order
     (ids break ties), so one left-to-right scan decides. Closed mode
     never sheds. *)
  let admitted =
    let in_window = Hashtbl.create 16 in
    List.filter_map
      (fun q ->
        if not open_loop then Some (0, q)
        else
          let w = q.q_arrival / window in
          let n = Option.value ~default:0 (Hashtbl.find_opt in_window w) in
          let admit = n < cfg.mt_queue_depth in
          if admit then Hashtbl.replace in_window w (n + 1)
          else begin
            fates.(q.q_id) <- Some (Shed_queue w);
            shed_event q "shed" w
          end;
          (* At a shed the occupancy is re-sampled, so the counter track
             shows the plateau pressing against the cap. *)
          Trace.counter trace ~track:"queue" ~cat:"serve" ~ts:q.q_arrival
            ~value:(if admit then n + 1 else n)
            "queue_depth";
          if admit then Some (w, q) else None)
      requests
  in
  (* Execution: one fan-out over the order-preserving pool, each request
     on a fresh machine under its own fault session — so outputs, service
     cycles and fault tallies are identical at any [mt_jobs]. Under
     [x_memoize] admitted requests with identical (model, input) share
     the execution of the first: the fan-out runs one per key. *)
  let keyed =
    List.map
      (fun ((_, q) as item) ->
        let key =
          if not x.x_memoize then string_of_int q.q_id
          else
            let m = models.(model_of q) in
            Models.Zoo.random_input ~seed:q.q_input_seed m.m_graph
            |> List.map (fun (n, t) -> n ^ ":" ^ digest_tensor t)
            |> List.cons (string_of_int (model_of q))
            |> String.concat "+"
        in
        (key, item))
      admitted
  in
  let seen = Hashtbl.create 16 in
  let reps =
    List.filter
      (fun (key, _) -> (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
      keyed
  in
  let execs = Hashtbl.create 16 in
  List.iter2
    (fun (key, _) e -> Hashtbl.replace execs key e)
    reps
    (Util.Pool.with_pool ~jobs:cfg.mt_jobs (fun pool ->
         Util.Pool.map pool
           (fun (_, (_, q)) -> execute x models.(model_of q) q)
           reps));
  let work = List.map (fun (key, item) -> (item, Hashtbl.find execs key)) keyed in
  (* Batch assembly, one pass per window — latest window first, the
     visiting order every recorded tally was taken under. A window's
     requests fill one open batch per model in arrival order. Each batch
     is predicted to dispatch the moment its window closes onto an idle
     instance, paying the dispatch overhead plus, under [Swap], one cold
     model load; a request's predicted sojourn adds the in-batch service
     prefix. A request whose predicted sojourn breaks its class SLO is
     shed and frees its slot for the next arrival.

     The predicted health plane rides the same pass: one logical machine
     advanced to each window open (while it is out of the rotation the
     effective ingress cap halves) and to each predicted dispatch (an
     ineligible dispatch is a predicted fail-open), then fed the batch's
     fault count at the predicted finish. In closed mode there are no
     windows, so it advances along the serialized batch cursor instead.

     Nothing here sees the fleet, so the shed sets, predicted sojourns
     and predicted plane are pure functions of the arrival stream, and
     the autotuner may replay the pass per candidate size. *)
  let windows = List.rev (group_by (fun ((w, _), _) -> w) work) in
  let swap_pred =
    match cfg.mt_placement with Swap -> cfg.mt_swap_overhead | Pinned -> 0
  in
  let assemble max_batch =
    let pm =
      match health with
      | Some hc when x.x_pred_health ->
          Some
            (Health.create ~degraded_at_start:(cfg.mt_degraded_instances <> []) hc
               ~instance:(-1))
      | _ -> None
    in
    let batches = ref [] and sheds = ref [] in
    let pred_fail_open = ref 0 and pclock = ref 0 in
    List.iter
      (fun (w, items) ->
        let dispatch_t = if open_loop then (w + 1) * window else 0 in
        let items =
          match pm with
          | Some pm when open_loop ->
              ignore (Health.advance pm ~now:(w * window));
              if Health.eligible pm then items
              else
                List.filteri
                  (fun k ((_, q), _) ->
                    k < max 1 (cfg.mt_queue_depth / 2)
                    || (sheds := (q, Shed_health w) :: !sheds; false))
                  items
          | _ -> items
        in
        let fill = Array.make n_models 0 and cursor = Array.make n_models 0 in
        let current = Array.make n_models [] in
        let flush m =
          if current.(m) <> [] then begin
            let batch = List.rev current.(m) in
            Option.iter
              (fun pm ->
                let pdispatch = if open_loop then dispatch_t else !pclock in
                ignore (Health.advance pm ~now:pdispatch);
                if not (Health.eligible pm) then incr pred_fail_open;
                pclock :=
                  List.fold_left
                    (fun acc (_, e, _) -> acc + service_of e)
                    (pdispatch + cfg.mt_dispatch_overhead + swap_pred)
                    batch;
                Health.observe_faults pm ~now:!pclock
                  (List.fold_left (fun acc (_, e, _) -> acc + faults_of e) 0 batch))
              pm;
            batches := (w, m, batch) :: !batches
          end;
          current.(m) <- [];
          fill.(m) <- 0
        in
        List.iter
          (fun ((_, q), exec) ->
            let m = model_of q in
            let start =
              if fill.(m) = 0 then dispatch_t + cfg.mt_dispatch_overhead + swap_pred
              else cursor.(m)
            in
            let finish = start + service_of exec in
            let pred = finish - q.q_arrival in
            match (exec, snd classes.(q.q_class)) with
            | Done _, Some slo when pred > slo -> sheds := (q, Shed_slo pred) :: !sheds
            | _ ->
                current.(m) <- (q, exec, pred) :: current.(m);
                cursor.(m) <- finish;
                fill.(m) <- fill.(m) + 1;
                if fill.(m) >= max_batch then flush m)
          items;
        for m = 0 to n_models - 1 do
          flush m
        done)
      windows;
    (List.rev !batches, List.rev !sheds, pm, !pred_fail_open)
  in
  (* Batch autotune ([mt_max_batch = 0]): score candidate sizes on the
     predicted schedule — fewest sheds first, then the lowest predicted
     total cost, then the smaller size. The cost is total work (each
     batch pays the dispatch overhead and, under Swap, one cold load —
     fewer batches amortize it) plus the summed predicted sojourns
     (bigger batches queue requests behind each other), so a dispatch
     overhead dwarfing per-request service pushes the tuner toward wide
     batches and a cheap dispatch toward narrow ones. *)
  let batch_size, (batches, sheds, pred, pred_fail_open) =
    if cfg.mt_max_batch > 0 then (cfg.mt_max_batch, assemble cfg.mt_max_batch)
    else
      List.fold_left
        (fun best b ->
          let ((batches, sheds, _, _) as a) = assemble b in
          let cost =
            List.fold_left
              (fun acc (_, _, items) ->
                List.fold_left
                  (fun acc (_, e, pred) -> acc + service_of e + pred)
                  (acc + cfg.mt_dispatch_overhead + swap_pred)
                  items)
              0 batches
          in
          let score = (List.length sheds, cost, b) in
          match best with
          | Some (s, _) when compare score s >= 0 -> best
          | _ -> Some (score, (b, a)))
        None [ 1; 2; 4; 8; 16; 32 ]
      |> Option.get |> snd
  in
  List.iter
    (fun (q, fate) ->
      fates.(q.q_id) <- Some fate;
      match fate with Shed_health w -> shed_event q "health-shed" w | _ -> ())
    sheds;
  (* Scheduling: the only fleet-shaped pass. A batch's placement pool is
     every instance under [Swap] and the instances pinned to its model
     ([i mod n_models]) under [Pinned]. Lifecycles catch up to the
     dispatch instant, then the batch goes to the earliest-free eligible
     instance in the pool (lowest id on ties); an empty eligible subset
     fails open to the whole pool — degraded beats down. An instance
     whose resident model differs pays [mt_swap_overhead]. *)
  let instances =
    Array.init cfg.mt_workers (fun id ->
        let boot_degraded = List.mem id cfg.mt_degraded_instances in
        {
          id;
          free_at = 0;
          busy = 0;
          served = 0;
          aborted = 0;
          batches = 0;
          faults = 0;
          swaps = 0;
          loaded =
            (match cfg.mt_placement with Pinned -> Some (id mod n_models) | Swap -> None);
          degraded_at =
            (* with health, filled post-run from the machine's log *)
            (if boot_degraded && health = None then Some 0 else None);
          probe_cyc = 0;
          hm =
            Option.map
              (fun hc -> Health.create ~degraded_at_start:boot_degraded hc ~instance:id)
              health;
          totals = Sim.Counters.create ();
        })
  in
  let fleet = Array.to_list instances in
  let freq_hz =
    float_of_int models.(0).m_artifact.C.cfg.C.platform.Arch.Platform.freq_mhz *. 1.0e6
  in
  let fleet_end () = Array.fold_left (fun acc i -> max acc i.free_at) 0 instances in
  let rate served span =
    if span = 0 then 0.0 else float_of_int served /. (float_of_int span /. freq_hz)
  in
  (* Fleet state when a dispatch window closes (batches arrive in window
     order, so a window change means the previous one is fully
     scheduled). *)
  let served_running = ref 0 and sched = ref [] in
  let sample_sched w =
    let free_max = fleet_end () in
    let ts = if open_loop then (w + 1) * window else free_max in
    let in_flight = List.length (List.filter (fun i -> i.free_at > ts) fleet) in
    sched :=
      ( ts,
        [ float_of_int in_flight; float_of_int free_max; float_of_int !served_running;
          rate !served_running free_max ] )
      :: !sched
  in
  (* The observed plane is fed the faults of each batch's fault sessions;
     without a fault plan there is nothing to observe. *)
  let observes_faults = not (Fault.Plan.is_empty x.x_plan) in
  let fail_open = ref 0 and open_window = ref None in
  List.iteri
    (fun b (w, m, items) ->
      (match !open_window with Some prev when prev <> w -> sample_sched prev | _ -> ());
      open_window := Some w;
      let pool =
        match cfg.mt_placement with
        | Swap -> fleet
        | Pinned -> List.filter (fun i -> i.id mod n_models = m) fleet
      in
      (* closed mode is a backlog: the next batch goes out as soon as any
         instance in its pool frees *)
      let dispatch_t =
        if open_loop then (w + 1) * window
        else List.fold_left (fun acc i -> min acc i.free_at) max_int pool
      in
      List.iter (fun i -> advance i dispatch_t) pool;
      let pool =
        match List.filter (fun i -> eligible_at i dispatch_t) pool with
        | [] ->
            incr fail_open;
            pool
        | live -> live
      in
      let inst =
        List.fold_left
          (fun best i -> if i.free_at < best.free_at then i else best)
          (List.hd pool) (List.tl pool)
      in
      let start = max dispatch_t inst.free_at in
      let swap =
        if inst.loaded = Some m then 0
        else begin
          inst.swaps <- inst.swaps + 1;
          inst.loaded <- Some m;
          cfg.mt_swap_overhead
        end
      in
      let cursor = ref (start + cfg.mt_dispatch_overhead + swap) in
      let batch_faults = ref 0 in
      List.iter
        (fun (q, exec, pred) ->
          let finish = !cursor + service_of exec in
          fates.(q.q_id) <-
            Some
              (Ran { instance = inst.id; batch = b; start = !cursor; finish; pred; exec });
          cursor := finish;
          inst.faults <- inst.faults + faults_of exec;
          batch_faults := !batch_faults + faults_of exec;
          match exec with
          | Done e ->
              incr served_running;
              inst.served <- inst.served + 1;
              Sim.Counters.add inst.totals e.e_totals
          | Abort _ -> inst.aborted <- inst.aborted + 1)
        items;
      let finish = !cursor in
      let track = Printf.sprintf "instance %d" inst.id in
      Trace.interval trace ~track ~cat:"serve" ~ts:start ~dur:(finish - start)
        ~args:
          [
            ("batch", J.Int b);
            ("window", J.Int w);
            ("model", J.Str models.(m).m_name);
            ("requests", J.Int (List.length items));
          ]
        (Printf.sprintf "batch %d (%d req)" b (List.length items));
      inst.free_at <- finish;
      inst.busy <- inst.busy + (finish - start);
      inst.batches <- inst.batches + 1;
      match (inst.hm, x.x_degrade_after, inst.degraded_at) with
      | Some h, _, _ ->
          if observes_faults then Health.observe_faults h ~now:finish !batch_faults
      | None, Some threshold, None when inst.faults >= threshold ->
          inst.degraded_at <- Some finish;
          Trace.interval trace ~track ~cat:"serve" ~ts:finish ~dur:0
            ~args:[ ("faults", J.Int inst.faults) ]
            "degraded"
      | _ -> ())
    batches;
  Option.iter sample_sched !open_window;
  (* Drain the observed plane to the end of the run: probes scheduled
     before the last completion still land, then each machine's log
     yields the instance's first-degradation cycle and the trace events. *)
  let makespan = fleet_end () in
  Array.iter
    (fun i ->
      Option.iter
        (fun m ->
          advance i makespan;
          let log = Health.transitions m in
          i.degraded_at <-
            List.find_opt (fun tr -> tr.Health.tr_to = Health.Degraded) log
            |> Option.map (fun tr -> tr.Health.tr_at);
          List.iter
            (fun tr ->
              Trace.interval trace
                ~track:(Printf.sprintf "instance %d" i.id)
                ~cat:"health" ~ts:tr.Health.tr_at ~dur:0
                ~args:
                  [
                    ("from", J.Str (Health.state_label tr.Health.tr_from));
                    ("to", J.Str (Health.state_label tr.Health.tr_to));
                    ("cause", J.Str (Health.cause_label tr.Health.tr_cause));
                  ]
                (Printf.sprintf "health %s" (Health.state_label tr.Health.tr_to)))
            log)
        i.hm)
    instances;
  let g_fates = List.map (fun q -> (q, Option.get fates.(q.q_id))) requests in
  let served =
    List.length
      (List.filter (function _, Ran { exec = Done _; _ } -> true | _ -> false) g_fates)
  in
  Ok
    {
      g_window = window;
      g_gap = gap;
      g_health = health;
      g_batch = batch_size;
      g_batches = List.length batches;
      g_fates;
      g_instances = instances;
      g_pred = pred;
      g_pred_fail_open = pred_fail_open;
      g_fail_open = !fail_open;
      g_memo_hits = List.length keyed - List.length reps;
      g_memo_misses = (if x.x_memoize then List.length reps else 0);
      g_sched = List.rev !sched;
      g_makespan = makespan;
      g_throughput = rate served makespan;
    }

(* Requests grouped by arrival window in first-arrival order, each group
   stamped with its window's close (one group at cycle 0 in closed
   mode) — the rows of the per-window metric series. *)
let by_window g arrival xs =
  let closed = g.g_window = 0 in
  group_by (fun x -> if closed then 0 else arrival x / g.g_window) xs
  |> List.map (fun (w, items) -> ((if closed then 0 else (w + 1) * g.g_window), items))

(* --- metric helpers shared by the front ends ---------------------------- *)

let count reg ?track ?labels ~help name v =
  Metrics.inc (Metrics.counter reg ?track ?labels ~help name) v

let gauge_int reg ?labels ~help name v =
  Metrics.set_int (Metrics.gauge reg ~track:Metrics.Sched ?labels ~help name) v

(* An instance's lifecycle gauges, under a front end's sched prefix. *)
let health_gauges reg ~prefix ~labels i =
  Option.iter
    (fun m ->
      gauge_int reg ~labels ~help:"Cycles the instance spent on health probes."
        (prefix ^ "_instance_probe_cycles") i.probe_cyc;
      gauge_int reg ~labels ~help:"Times the instance rejoined the healthy rotation."
        (prefix ^ "_instance_readmissions") (Health.readmissions m))
    i.hm

let span_gauges reg ~prefix g =
  gauge_int reg ~help:"End-to-end makespan cycles." (prefix ^ "_makespan_cycles")
    g.g_makespan;
  Metrics.set
    (Metrics.gauge reg ~track:Metrics.Sched
       ~help:"Served requests per second of simulated time." (prefix ^ "_throughput_rps"))
    g.g_throughput

(* --- single-model front end --------------------------------------------- *)

let generate cfg ~mean_gap =
  let rng = Util.Rng.create cfg.seed in
  (* Input-mix pool: [input_mix = 0] keeps the historical fully-unique
     stream byte-for-byte; [input_mix = k > 0] folds every per-request
     draw into a pool of k seeds from a derived stream. The fold happens
     after the main draw, so arrivals are identical at any mix. *)
  let pool =
    if cfg.input_mix <= 0 then [||]
    else
      let prng = Util.Rng.create (cfg.seed + 999_983) in
      Array.init cfg.input_mix (fun _ -> Util.Rng.int_in prng 1 1_000_000)
  in
  let clock = ref 0 in
  List.init cfg.requests (fun k ->
      let draw = Util.Rng.int_in rng 1 1_000_000 in
      let input_seed =
        if cfg.input_mix <= 0 then draw else pool.(draw mod cfg.input_mix)
      in
      let arrival =
        match cfg.arrival with
        | Closed -> 0
        | Poisson _ ->
            clock := !clock + exp_gap rng ~mean:mean_gap;
            !clock
      in
      { q_id = k; q_class = 0; q_input_seed = input_seed; q_arrival = arrival })

(* Single-tenant config validation. Raises [Invalid_argument] — [run]'s
   historical contract — with [validate] below wrapping the same checks
   into a typed result. *)
let check_config cfg =
  if cfg.workers < 1 then invalid_arg "Serve.run: workers must be >= 1";
  if cfg.max_batch < 1 then invalid_arg "Serve.run: max_batch must be >= 1";
  if cfg.queue_depth < 1 then invalid_arg "Serve.run: queue_depth must be >= 1";
  if cfg.requests < 0 then invalid_arg "Serve.run: requests must be >= 0";
  (match cfg.slo_sojourn with
  | Some t when t < 1 -> invalid_arg "Serve.run: slo_sojourn must be >= 1"
  | _ -> ());
  if cfg.input_mix < 0 then invalid_arg "Serve.run: input_mix must be >= 0";
  (* Degraded ids must name real instances, once each — out-of-range or
     duplicate ids were silently ignored before and always indicate a
     config bug (a typo'd fleet size, a doubled flag). *)
  (match
     List.find_opt
       (fun id -> id < 0 || id >= cfg.workers)
       cfg.degraded_instances
   with
  | Some id ->
      invalid_arg
        (Printf.sprintf
           "Serve.run: degraded instance id %d out of range [0, %d)" id
           cfg.workers)
  | None -> ());
  if
    List.length (List.sort_uniq compare cfg.degraded_instances)
    <> List.length cfg.degraded_instances
  then invalid_arg "Serve.run: degraded instance ids must be distinct";
  (* The health lifecycle replaces the one-way degrade_after flag; the
     two accounting schemes would fight over instance eligibility. *)
  if cfg.health <> None && cfg.degrade_after <> None then
    invalid_arg "Serve.run: health and degrade_after are mutually exclusive";
  (match Option.map check_health cfg.health with
  | Some (Error msg) -> invalid_arg ("Serve.run: " ^ msg)
  | _ -> ());
  (* Memoization reuses one execution across identical inputs, which is
     only sound when executions are input-pure — per-request fault
     sessions make them input-impure by design. *)
  if cfg.memoize && not (Fault.Plan.is_empty cfg.plan) then
    invalid_arg "Serve.run: memoize requires an empty fault plan"

let validate cfg =
  match check_config cfg with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (Bad_config msg)

(* One model, one class that sheds on no SLO, every instance pinned to
   that model, and the fault/memo/degradation/predicted-plane extras. *)
let run ?trace ?metrics cfg artifact ~graph =
  check_config cfg;
  let g =
    match
      engine ?trace
        {
          mt_workers = cfg.workers;
          mt_max_batch = cfg.max_batch;
          mt_queue_depth = cfg.queue_depth;
          mt_requests = cfg.requests;
          mt_seed = cfg.seed;
          mt_arrival =
            (match cfg.arrival with
            | Closed -> Mt_closed
            | Poisson { mean_gap } -> Mt_poisson { mean_gap });
          mt_window = cfg.window;
          mt_dispatch_overhead = cfg.dispatch_overhead;
          mt_swap_overhead = 0;
          mt_placement = Pinned;
          mt_jobs = cfg.jobs;
          mt_degraded_instances = cfg.degraded_instances;
          mt_health = cfg.health;
        }
        {
          x_plan = cfg.plan;
          x_retry_budget = cfg.retry_budget;
          x_memoize = cfg.memoize;
          x_degrade_after = cfg.degrade_after;
          x_pred_health = true;
        }
        ~models:[| { m_name = "main"; m_artifact = artifact; m_graph = graph } |]
        ~classes:[| (0, None) |]
        ~generate:(fun ~gap ~window:_ -> generate cfg ~mean_gap:gap)
    with
    | Ok g -> g
    | Error e -> invalid_arg ("Serve.run: " ^ mt_error_to_string e)
  in
  let outcomes =
    List.map
      (fun (q, fate) ->
        let r =
          { r_id = q.q_id; r_input_seed = q.q_input_seed; r_arrival = q.q_arrival }
        in
        ( r,
          match fate with
          | Ran { instance; batch; start; finish; pred; exec = Done e } ->
              Served
                {
                  o_instance = instance;
                  o_batch = batch;
                  o_start = start;
                  o_finish = finish;
                  o_service = e.e_service;
                  o_wait = start - r.r_arrival;
                  o_digest = e.e_digest;
                  o_detected = e.e_detected;
                  o_silent = e.e_silent;
                  o_retries = e.e_retries;
                  o_pred_sojourn = pred;
                }
          | Ran { instance; batch; exec = Abort a; _ } ->
              Aborted
                {
                  o_instance = instance;
                  o_batch = batch;
                  o_site = a.a_site;
                  o_attempts = a.a_attempts;
                }
          | Shed_queue w | Shed_health w -> Rejected { o_window = w }
          | Shed_slo _ -> assert false (* the one class sheds on no SLO *) ))
      g.g_fates
  in
  let served_list =
    List.filter_map
      (function
        | q, Ran { finish; pred; exec = Done e; _ } ->
            Some (e.e_service, finish - q.q_arrival, pred)
        | _ -> None)
      g.g_fates
  in
  let service_list = List.map (fun (s, _, _) -> s) served_list in
  let sojourn_list = List.map (fun (_, s, _) -> s) served_list in
  let served = List.length served_list in
  let rejected =
    List.length (List.filter (function _, Rejected _ -> true | _ -> false) outcomes)
  in
  let aborted =
    List.length (List.filter (function _, Aborted _ -> true | _ -> false) outcomes)
  in
  let health_shed =
    List.length (List.filter (function _, Shed_health _ -> true | _ -> false) g.g_fates)
  in
  (* --- metrics + SLO accounting. The run always records into a registry
     — the caller's (so a serve dump can carry the compile-side metrics
     too) or a private one — and the report carries its snapshot.
     Registration is strict, so a caller-supplied registry must not have
     seen a serve run before. Within a track, registration order is the
     exposition order. *)
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let violates p = match cfg.slo_sojourn with Some t -> p > t | None -> false in
  count reg ~help:"Requests generated from the seed." "htvm_serve_requests_total"
    cfg.requests;
  count reg ~help:"Requests admitted past the per-window ingress cap."
    "htvm_serve_admitted_total" (cfg.requests - rejected);
  count reg ~help:"Requests shed at admission." "htvm_serve_shed_total" rejected;
  count reg ~help:"Requests served to completion." "htvm_serve_served_total" served;
  count reg ~help:"Requests aborted after exhausting the retry budget."
    "htvm_serve_aborted_total" aborted;
  let det, sil, ret =
    List.fold_left
      (fun (d, s, t) (_, fate) ->
        match fate with
        | Ran { exec = Done e; _ } -> (d + e.e_detected, s + e.e_silent, t + e.e_retries)
        | Ran { exec = Abort a; _ } ->
            (d + a.a_detected, s + a.a_silent, t + max 0 (a.a_attempts - 1))
        | _ -> (d, s, t))
      (0, 0, 0) g.g_fates
  in
  count reg ~help:"Detected faults across all request executions."
    "htvm_serve_faults_detected_total" det;
  count reg ~help:"Silent corruptions across all request executions."
    "htvm_serve_faults_silent_total" sil;
  count reg ~help:"Retries across all request executions." "htvm_serve_retries_total" ret;
  count reg ~help:"Admitted requests whose output was reused from an identical input."
    "htvm_serve_memo_hits_total" g.g_memo_hits;
  count reg ~help:"Distinct inputs actually executed under memoization."
    "htvm_serve_memo_misses_total" g.g_memo_misses;
  let histogram help name xs =
    let h = Metrics.histogram reg ~buckets:cycle_buckets ~help name in
    List.iter (Metrics.observe h) xs
  in
  histogram "Per-request service cycles on a dedicated machine."
    "htvm_serve_service_cycles"
    service_list;
  histogram "Predicted (queueing-free) sojourn cycles of served requests."
    "htvm_serve_pred_sojourn_cycles"
    (List.map (fun (_, _, p) -> p) served_list);
  (* Per-window admission + predicted-SLO rows, built from outcomes
     alone: timestamps are explicit and the data never saw the fleet. *)
  let cum_srv = ref 0 and cum_viol = ref 0 in
  let rows =
    List.map
      (fun (ts, items) ->
        let n p = List.length (List.filter p items) in
        let shed = n (function _, Rejected _ -> true | _ -> false) in
        let viol = n (function _, Served s -> violates s.o_pred_sojourn | _ -> false) in
        cum_srv := !cum_srv + n (function _, Served _ -> true | _ -> false);
        cum_viol := !cum_viol + viol;
        let rate =
          if !cum_srv = 0 then 0.0 else float_of_int !cum_viol /. float_of_int !cum_srv
        in
        ( ts,
          [ float_of_int (List.length items); float_of_int (List.length items - shed);
            float_of_int shed; float_of_int viol; rate ] ))
      (by_window g (fun (r, _) -> r.r_arrival) outcomes)
  in
  let pred_violations = !cum_viol in
  count reg ~help:"Served requests whose predicted sojourn exceeded the SLO target."
    "htvm_serve_slo_pred_violations_total" pred_violations;
  let m_window =
    Metrics.series reg
      ~columns:
        [
          "arrivals"; "admitted"; "shed"; "slo_pred_violations";
          "slo_pred_violation_rate";
        ]
      ~help:"Per dispatch window: admission and predicted-SLO accounting."
      "htvm_serve_window"
  in
  List.iter (fun (ts, row) -> Metrics.sample m_window ~ts row) rows;
  let sim_totals = Sim.Counters.create () in
  Array.iter (fun i -> Sim.Counters.add sim_totals i.totals) g.g_instances;
  List.iter
    (fun (name, v) ->
      count reg
        ~help:("Simulator counter " ^ name ^ " summed over served requests.")
        ("htvm_sim_" ^ name ^ "_total") v)
    (Sim.Counters.fields sim_totals);
  let observed_violations =
    match cfg.slo_sojourn with
    | None -> 0
    | Some t -> List.length (List.filter (fun s -> s > t) sojourn_list)
  in
  count reg ~track:Metrics.Sched
    ~help:"Served requests whose observed sojourn exceeded the SLO target."
    "htvm_serve_slo_observed_violations_total" observed_violations;
  let m_sched_window =
    Metrics.series reg ~track:Metrics.Sched
      ~columns:[ "in_flight"; "free_max"; "served_cum"; "throughput_rps" ]
      ~help:"Fleet state at each dispatch-window close." "htvm_sched_window"
  in
  List.iter (fun (ts, row) -> Metrics.sample m_sched_window ~ts row) g.g_sched;
  (* Fail-open accounting is split like the SLO counters: the dedicated
     htvm_serve_fail_open_total counts predicted-plane fail-opens
     (cycles track, worker-invariant, 0 without health); the observed
     fleet-shaped count lands on the sched track. *)
  count reg
    ~help:
      "Batches predicted to dispatch with no healthy capacity (fail-open), on \
       the predicted health plane."
    "htvm_serve_fail_open_total" g.g_pred_fail_open;
  count reg
    ~help:
      "Requests shed by health-aware admission while the predicted plane was \
       out of the rotation."
    "htvm_serve_health_shed_total" health_shed;
  count reg ~track:Metrics.Sched
    ~help:
      "Scheduled batches dispatched with every instance out of the healthy \
       rotation (fail-open)."
    "htvm_sched_fail_open_total" g.g_fail_open;
  let transition_counters ?track help name count_of =
    List.iter
      (fun ((f, t) as pair) ->
        count reg ?track
          ~labels:[ ("from", Health.state_label f); ("to", Health.state_label t) ]
          ~help name (count_of pair))
      Health.legal_pairs
  in
  Option.iter
    (fun pm ->
      transition_counters "Predicted-plane health transitions by (from, to)."
        "htvm_health_pred_transitions_total"
        (fun pair -> List.assoc pair (Health.transition_counts pm));
      count reg ~help:"Predicted-plane readmissions to the healthy rotation."
        "htvm_health_pred_readmissions_total" (Health.readmissions pm);
      count reg ~help:"Predicted-plane entries into the degraded state."
        "htvm_health_pred_relapses_total" (Health.relapses pm);
      count reg ~help:"Predicted-plane cycles spent on health-check probes."
        "htvm_health_pred_probe_cycles_total" (Health.probe_cycles pm);
      transition_counters ~track:Metrics.Sched
        "Observed per-instance health transitions by (from, to), summed over the \
         fleet."
        "htvm_health_observed_transitions_total"
        (fun pair ->
          Array.fold_left
            (fun acc i ->
              match i.hm with
              | None -> acc
              | Some m -> acc + List.assoc pair (Health.transition_counts m))
            0 g.g_instances))
    g.g_pred;
  Array.iter
    (fun i ->
      let labels = [ ("instance", string_of_int i.id) ] in
      gauge_int reg ~labels ~help:"Busy cycles per instance."
        "htvm_sched_instance_busy_cycles" i.busy;
      gauge_int reg ~labels ~help:"Requests served per instance."
        "htvm_sched_instance_served" i.served;
      gauge_int reg ~labels ~help:"Batches dispatched per instance."
        "htvm_sched_instance_batches" i.batches;
      gauge_int reg ~labels ~help:"1 when the instance left the healthy rotation."
        "htvm_sched_instance_degraded"
        (match i.degraded_at with Some _ -> 1 | None -> 0);
      health_gauges reg ~prefix:"htvm_sched" ~labels i)
    g.g_instances;
  span_gauges reg ~prefix:"htvm_sched" g;
  let rate n = if served = 0 then 0.0 else float_of_int n /. float_of_int served in
  {
    r_config = cfg;
    r_window = g.g_window;
    r_mean_gap = g.g_gap;
    r_outcomes = outcomes;
    r_served = served;
    r_rejected = rejected;
    r_aborted = aborted;
    r_shed_rate =
      (if cfg.requests = 0 then 0.0
       else float_of_int rejected /. float_of_int cfg.requests);
    r_service = percentiles_of service_list;
    r_sojourn = percentiles_of sojourn_list;
    r_makespan = g.g_makespan;
    r_throughput_rps = g.g_throughput;
    r_instances =
      Array.to_list
        (Array.map
           (fun i ->
             {
               i_id = i.id;
               i_batches = i.batches;
               i_served = i.served;
               i_aborted = i.aborted;
               i_busy = i.busy;
               i_utilization =
                 (if g.g_makespan = 0 then 0.0
                  else float_of_int i.busy /. float_of_int g.g_makespan);
               i_faults = i.faults;
               i_degraded_at = i.degraded_at;
               i_health = Option.map health_stat_of i.hm;
               i_totals = i.totals;
             })
           g.g_instances);
    r_slo =
      Option.map
        (fun target ->
          {
            s_target = target;
            s_pred_violations = pred_violations;
            s_observed_violations = observed_violations;
            s_pred_violation_rate = rate pred_violations;
          })
        cfg.slo_sojourn;
    r_health =
      Option.map
        (fun pm ->
          {
            h_config = Option.get g.g_health;
            h_pred_state = Health.state pm;
            h_pred_transitions = List.length (Health.transitions pm);
            h_pred_readmissions = Health.readmissions pm;
            h_pred_relapses = Health.relapses pm;
            h_pred_probe_cycles = Health.probe_cycles pm;
            h_pred_fail_open = g.g_pred_fail_open;
            h_shed = health_shed;
          })
        g.g_pred;
    r_fail_open = g.g_fail_open;
    r_memo_hits = g.g_memo_hits;
    r_memo_misses = g.g_memo_misses;
    r_metrics = Metrics.snapshot reg;
  }

(* --- arrival trace format ---------------------------------------------

   Line-oriented, replayable with `htvmc serve --replay`:

     htvm-serve-trace v1
     # comment
     <cycle> <class-name> <seed>

   Cycles must be non-negative and non-decreasing (requests are in
   arrival order, line order breaks ties). *)

let trace_header = "htvm-serve-trace v1"

let render_arrival_trace r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (trace_header ^ "\n");
  Buffer.add_string buf "# cycle class seed\n";
  List.iter
    (fun (q, _) ->
      let cls = List.nth r.mt_class_list q.q_class in
      Buffer.add_string buf
        (Printf.sprintf "%d %s %d\n" q.q_arrival cls.k_name q.q_input_seed))
    r.mt_outcomes;
  Buffer.contents buf

let parse_arrival_trace text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> Error (Bad_trace { line = 1; reason = "empty trace" })
  | header :: rest ->
      if String.trim header <> trace_header then
        Error
          (Bad_trace
             { line = 1; reason = Printf.sprintf "expected header %S" trace_header })
      else
        let rec go line_no acc prev_cycle = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              let trimmed = String.trim line in
              if trimmed = "" || trimmed.[0] = '#' then
                go (line_no + 1) acc prev_cycle rest
              else
                let tokens =
                  List.filter (( <> ) "") (String.split_on_char ' ' trimmed)
                in
                match tokens with
                | [ cycle; cls; seed ] -> (
                    match (int_of_string_opt cycle, int_of_string_opt seed) with
                    | None, _ ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = Printf.sprintf "bad cycle %S" cycle;
                             })
                    | _, None ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = Printf.sprintf "bad seed %S" seed;
                             })
                    | Some c, Some _ when c < 0 ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = "arrival cycle must be >= 0";
                             })
                    | Some c, Some _ when c < prev_cycle ->
                        Error
                          (Bad_trace
                             {
                               line = line_no;
                               reason = "arrival cycles must be non-decreasing";
                             })
                    | Some c, Some s ->
                        go (line_no + 1)
                          ({ t_cycle = c; t_class = cls; t_seed = s; t_line = line_no }
                          :: acc)
                          c rest)
                | _ ->
                    Error
                      (Bad_trace
                         {
                           line = line_no;
                           reason =
                             Printf.sprintf
                               "expected `cycle class seed`, got %d token(s)"
                               (List.length tokens);
                         }))
        in
        go 2 [] 0 rest

let load_arrival_trace path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_arrival_trace text
  | exception Sys_error e -> Error (Bad_trace { line = 0; reason = e })

(* --- multi-tenant run -------------------------------------------------- *)

let mt_arrival_to_string r =
  match r.mt_cfg.mt_arrival with
  | Mt_closed -> "closed"
  | Mt_poisson _ -> Printf.sprintf "poisson gap %d" r.mt_resolved_gap
  | Mt_diurnal { period; _ } ->
      Printf.sprintf "diurnal gap %d period %d" r.mt_resolved_gap period
  | Mt_bursty { burst; _ } ->
      Printf.sprintf "bursty burst %d gap %d" burst r.mt_resolved_gap
  | Mt_replay entries -> Printf.sprintf "replay n=%d" (List.length entries)

let placement_to_string = function Pinned -> "pinned" | Swap -> "swap"

(* Validate the static configuration; every violation is a typed
   [Bad_config] rather than an exception, so `htvmc serve` can print it
   and exit cleanly. *)
let mt_validate cfg ~models ~classes =
  let err msg = Error (Bad_config msg) in
  if cfg.mt_workers < 1 then err "workers must be >= 1"
  else if cfg.mt_max_batch < 0 then err "max_batch must be >= 1 (or 0 = autotune)"
  else if cfg.mt_queue_depth < 1 then err "queue_depth must be >= 1"
  else if cfg.mt_requests < 0 then err "requests must be >= 0"
  else if cfg.mt_dispatch_overhead < 0 then err "dispatch_overhead must be >= 0"
  else if cfg.mt_swap_overhead < 0 then err "swap_overhead must be >= 0"
  else if models = [] then err "the model registry is empty"
  else if classes = [] then err "at least one model class is required"
  else if
    List.length (List.sort_uniq compare (List.map (fun m -> m.m_name) models))
    <> List.length models
  then err "model registry names must be unique"
  else if
    List.length (List.sort_uniq compare (List.map (fun k -> k.k_name) classes))
    <> List.length classes
  then err "class names must be unique"
  else if List.exists (fun k -> k.k_name = "" || String.contains k.k_name ' ') classes
  then err "class names must be non-empty and contain no spaces"
  else if List.exists (fun k -> k.k_weight < 1) classes then
    err "class weights must be >= 1"
  else if
    List.exists (fun k -> match k.k_slo with Some t -> t < 1 | None -> false) classes
  then err "class SLO targets must be >= 1"
  else if
    List.exists
      (fun id -> id < 0 || id >= cfg.mt_workers)
      cfg.mt_degraded_instances
  then
    err
      (Printf.sprintf "degraded instance ids must be in [0, %d)" cfg.mt_workers)
  else if
    List.length (List.sort_uniq compare cfg.mt_degraded_instances)
    <> List.length cfg.mt_degraded_instances
  then err "degraded instance ids must be distinct"
  else
    match cfg.mt_arrival with
    | Mt_diurnal { period; _ } when period < 0 ->
        err "diurnal period must be >= 0 (0 = auto)"
    | Mt_bursty { burst; _ } when burst < 1 -> err "burst must be >= 1"
    | _ -> (
        match Option.map check_health cfg.mt_health with
        | Some (Error msg) -> err msg
        | _ -> Ok ())

(* Resolve each class's model name against the registry; the distinct
   models actually referenced get dense indices in first-reference
   order (the pinning map runs over those). *)
let mt_resolve ~models ~classes =
  let rec resolve acc used = function
    | [] -> Ok (List.rev acc, List.rev used)
    | k :: rest -> (
        match List.find_opt (fun m -> m.m_name = k.k_model) models with
        | None -> Error (Unknown_model { class_name = k.k_name; model = k.k_model })
        | Some m ->
            let used, idx =
              match
                List.mapi (fun i u -> (i, u)) (List.rev used)
                |> List.find_opt (fun (_, u) -> u.m_name = m.m_name)
              with
              | Some (i, _) -> (used, i)
              | None -> (m :: used, List.length used)
            in
            resolve ((k, idx) :: acc) used rest)
  in
  resolve [] [] classes

let mt_run ?trace ?metrics cfg ~models ~classes =
  let ( let* ) = Result.bind in
  let* () = mt_validate cfg ~models ~classes in
  let* class_models, used_models = mt_resolve ~models ~classes in
  let class_arr = Array.of_list classes in
  let used = Array.of_list used_models in
  let* () =
    match cfg.mt_placement with
    | Pinned when cfg.mt_workers < Array.length used ->
        Error
          (Bad_config
             (Printf.sprintf "pinned placement needs workers >= distinct models (%d < %d)"
                cfg.mt_workers (Array.length used)))
    | _ -> Ok ()
  in
  (* Replayed traces must only reference configured classes. *)
  let* replay =
    match cfg.mt_arrival with
    | Mt_replay entries ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match List.find_index (fun k -> k.k_name = e.t_class) classes with
            | Some i -> Ok ((e, i) :: acc)
            | None ->
                Error
                  (Unknown_class
                     {
                       class_name = e.t_class;
                       context = Printf.sprintf "trace line %d" e.t_line;
                     }))
          (Ok []) entries
        |> Result.map List.rev
    | _ -> Ok []
  in
  (* Generation: class mix, payload seeds and arrivals from one Rng
     stream, or verbatim from the replayed trace. *)
  let generate ~gap ~window =
    match cfg.mt_arrival with
    | Mt_replay _ ->
        List.mapi
          (fun i (e, cls) ->
            { q_id = i; q_class = cls; q_input_seed = e.t_seed; q_arrival = e.t_cycle })
          replay
    | _ ->
        let total_weight = Array.fold_left (fun acc k -> acc + k.k_weight) 0 class_arr in
        let pick_class rng =
          let d = Util.Rng.int rng total_weight in
          let rec go i acc =
            let acc = acc + class_arr.(i).k_weight in
            if d < acc then i else go (i + 1) acc
          in
          go 0 0
        in
        let period =
          match cfg.mt_arrival with
          | Mt_diurnal { period; _ } -> if period > 0 then period else 8 * window
          | _ -> 0
        in
        let rng = Util.Rng.create cfg.mt_seed in
        let clock = ref 0 in
        List.init cfg.mt_requests (fun k ->
            let cls = pick_class rng in
            let seed = Util.Rng.int_in rng 1 1_000_000 in
            (match cfg.mt_arrival with
            | Mt_closed | Mt_replay _ -> ()
            | Mt_poisson _ -> clock := !clock + exp_gap rng ~mean:gap
            | Mt_diurnal _ ->
                let pos = !clock mod period in
                let half = max 1 (period / 2) in
                let peak = max 1 (gap / 2) in
                let trough = 2 * gap in
                let d = abs (pos - half) in
                let mean = peak + ((trough - peak) * d / half) in
                clock := !clock + exp_gap rng ~mean
            | Mt_bursty { burst; _ } ->
                if k mod burst = 0 then
                  clock := !clock + exp_gap rng ~mean:(burst * gap));
            { q_id = k; q_class = cls; q_input_seed = seed; q_arrival = !clock })
  in
  let* g =
    engine ?trace cfg no_extras ~models:used
      ~classes:(Array.of_list (List.map (fun (k, m) -> (m, k.k_slo)) class_models))
      ~generate
  in
  let outcomes =
    List.map
      (fun (q, fate) ->
        ( q,
          match fate with
          | Ran { instance; batch; start; finish; pred; exec = Done e } ->
              Mt_served
                {
                  mo_instance = instance;
                  mo_batch = batch;
                  mo_start = start;
                  mo_finish = finish;
                  mo_service = e.e_service;
                  mo_digest = e.e_digest;
                  mo_pred_sojourn = pred;
                }
          | Shed_queue w -> Mt_shed_queue { mo_window = w }
          | Shed_slo pred -> Mt_shed_slo { mo_pred_sojourn = pred }
          | Ran { exec = Abort _; _ } | Shed_health _ ->
              assert false (* no fault plan, no predicted plane *) ))
      g.g_fates
  in
  let count_of p xs = List.length (List.filter p xs) in
  let is_served = function _, Mt_served _ -> true | _ -> false in
  let is_shed_queue = function _, Mt_shed_queue _ -> true | _ -> false in
  let is_shed_slo = function _, Mt_shed_slo _ -> true | _ -> false in
  let services =
    List.filter_map (function _, Mt_served s -> Some s.mo_service | _ -> None)
  in
  let swaps = Array.fold_left (fun acc i -> acc + i.swaps) 0 g.g_instances in
  let class_stats =
    List.mapi
      (fun ci k ->
        let mine = List.filter (fun (q, _) -> q.q_class = ci) outcomes in
        {
          cs_name = k.k_name;
          cs_model = k.k_model;
          cs_slo = k.k_slo;
          cs_weight = k.k_weight;
          cs_requests = List.length mine;
          cs_served = count_of is_served mine;
          cs_shed_queue = count_of is_shed_queue mine;
          cs_shed_slo = count_of is_shed_slo mine;
          cs_observed_violations =
            (match k.k_slo with
            | None -> 0
            | Some t ->
                count_of
                  (function q, Mt_served s -> s.mo_finish - q.q_arrival > t | _ -> false)
                  mine);
          cs_service = percentiles_of (services mine);
        })
      classes
  in
  (* --- metrics: per-class admission/outcome counters and service
     histograms on the cycles track (workers/jobs-invariant); swaps,
     per-instance stats, makespan/throughput and observed SLO
     violations on the sched track. *)
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  count reg ~help:"Requests generated or replayed." "htvm_mtserve_requests_total"
    (List.length outcomes);
  count reg ~help:"Requests served to completion." "htvm_mtserve_served_total"
    (count_of is_served outcomes);
  count reg ~help:"Requests shed at the per-window ingress cap."
    "htvm_mtserve_shed_queue_total" (count_of is_shed_queue outcomes);
  count reg ~help:"Requests shed because the predicted sojourn broke the class SLO."
    "htvm_mtserve_shed_slo_total" (count_of is_shed_slo outcomes);
  count reg ~help:"Batches assembled (predicted schedule)." "htvm_mtserve_batches_total"
    g.g_batches;
  Metrics.set_int
    (Metrics.gauge reg ~help:"Resolved batch size (autotuned when max_batch = 0)."
       "htvm_mtserve_batch_size")
    g.g_batch;
  List.iteri
    (fun ci cs ->
      let labels = [ ("class", cs.cs_name) ] in
      count reg ~labels ~help:"Per-class requests." "htvm_mtserve_class_requests_total"
        cs.cs_requests;
      count reg ~labels ~help:"Per-class served requests."
        "htvm_mtserve_class_served_total"
        cs.cs_served;
      count reg ~labels ~help:"Per-class ingress-cap sheds."
        "htvm_mtserve_class_shed_queue_total" cs.cs_shed_queue;
      count reg ~labels ~help:"Per-class predicted-SLO violations (shed before dispatch)."
        "htvm_mtserve_class_slo_pred_violations_total" cs.cs_shed_slo;
      let h =
        Metrics.histogram reg ~labels ~buckets:cycle_buckets
          ~help:"Per-class service cycles."
          "htvm_mtserve_class_service_cycles"
      in
      List.iter (Metrics.observe h)
        (services (List.filter (fun (q, _) -> q.q_class = ci) outcomes)))
    class_stats;
  let m_window =
    Metrics.series reg
      ~columns:[ "arrivals"; "admitted"; "shed_queue"; "shed_slo" ]
      ~help:"Per dispatch window: multi-tenant admission accounting."
      "htvm_mtserve_window"
  in
  List.iter
    (fun (ts, items) ->
      Metrics.sample m_window ~ts
        (List.map float_of_int
           [ List.length items; count_of is_served items; count_of is_shed_queue items;
             count_of is_shed_slo items ]))
    (by_window g (fun (q, _) -> q.q_arrival) outcomes);
  List.iter
    (fun cs ->
      count reg ~track:Metrics.Sched ~labels:[ ("class", cs.cs_name) ]
        ~help:"Per-class observed SLO violations (fleet-shape dependent)."
        "htvm_mtserve_class_slo_observed_violations_total" cs.cs_observed_violations)
    class_stats;
  Array.iter
    (fun i ->
      let labels = [ ("instance", string_of_int i.id) ] in
      gauge_int reg ~labels ~help:"Busy cycles." "htvm_mtsched_instance_busy_cycles"
        i.busy;
      gauge_int reg ~labels ~help:"Requests served." "htvm_mtsched_instance_served"
        i.served;
      gauge_int reg ~labels ~help:"Model reloads paid by this instance."
        "htvm_mtsched_instance_swaps" i.swaps;
      health_gauges reg ~prefix:"htvm_mtsched" ~labels i)
    g.g_instances;
  count reg ~track:Metrics.Sched
    ~help:"Batches dispatched with no eligible instance in their pool."
    "htvm_mtsched_fail_open_total" g.g_fail_open;
  span_gauges reg ~prefix:"htvm_mtsched" g;
  Ok
    {
      mt_cfg = cfg;
      mt_class_list = classes;
      mt_resolved_window = g.g_window;
      mt_resolved_gap = g.g_gap;
      mt_batch = g.g_batch;
      mt_outcomes = outcomes;
      mt_served = count_of is_served outcomes;
      mt_shed_queue = count_of is_shed_queue outcomes;
      mt_shed_slo = count_of is_shed_slo outcomes;
      mt_swaps = swaps;
      mt_class_stats = class_stats;
      mt_service = percentiles_of (services outcomes);
      mt_sojourn =
        percentiles_of
          (List.filter_map
             (function q, Mt_served s -> Some (s.mo_finish - q.q_arrival) | _ -> None)
             outcomes);
      mt_makespan = g.g_makespan;
      mt_throughput_rps = g.g_throughput;
      mt_fail_open = g.g_fail_open;
      mt_instances =
        Array.to_list
          (Array.map
             (fun i ->
               {
                 mi_id = i.id;
                 mi_batches = i.batches;
                 mi_served = i.served;
                 mi_busy = i.busy;
                 mi_swaps = i.swaps;
                 mi_utilization =
                   (if g.g_makespan = 0 then 0.0
                    else float_of_int i.busy /. float_of_int g.g_makespan);
                 mi_model = Option.map (fun m -> used.(m).m_name) i.loaded;
                 mi_health = Option.map health_stat_of i.hm;
               })
             g.g_instances);
      mt_metrics = Metrics.snapshot reg;
    }

(* --- rendering -------------------------------------------------------- *)

let pp_percentiles buf label p =
  Buffer.add_string buf
    (Printf.sprintf "%s count=%d min=%d mean=%.3f p50=%d p95=%d p99=%d max=%d\n"
       label p.p_count p.p_min p.p_mean p.p50 p.p95 p.p99 p.p_max)

let percentiles_json p =
  J.Obj
    [
      ("count", J.Int p.p_count);
      ("min", J.Int p.p_min);
      ("mean", J.Float p.p_mean);
      ("p50", J.Int p.p50);
      ("p95", J.Int p.p95);
      ("p99", J.Int p.p99);
      ("max", J.Int p.p_max);
    ]

let health_suffix = function
  | None -> ""
  | Some hs ->
      Printf.sprintf ", health %s (%d readmission(s), %d probe cycles)"
        (Health.state_label hs.hs_state) hs.hs_readmissions hs.hs_probe_cycles

let health_stat_json hs =
  J.Obj
    [
      ("state", J.Str (Health.state_label hs.hs_state));
      ("transitions", J.Int hs.hs_transitions);
      ("readmissions", J.Int hs.hs_readmissions);
      ("relapses", J.Int hs.hs_relapses);
      ("probes_passed", J.Int hs.hs_probes_passed);
      ("probes_failed", J.Int hs.hs_probes_failed);
      ("probe_cycles", J.Int hs.hs_probe_cycles);
    ]

(* --- multi-tenant rendering ------------------------------------------- *)

(* The functional ledger of a multi-tenant run: per-request outcomes
   (class, digest, service, predicted sojourn), per-class totals and
   service percentiles. Pure function of the seed (or of the replayed
   trace) — byte-identical at any workers/jobs. *)
let mt_tally r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "htvm-mtserve-tally v1\n";
  Buffer.add_string buf
    (Printf.sprintf
       "seed %d requests %d arrival %s batch %d queue-depth %d window %d \
        placement %s swap-overhead %d\n"
       r.mt_cfg.mt_seed
       (List.length r.mt_outcomes)
       (mt_arrival_to_string r) r.mt_batch r.mt_cfg.mt_queue_depth
       r.mt_resolved_window
       (placement_to_string r.mt_cfg.mt_placement)
       r.mt_cfg.mt_swap_overhead);
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf "class %s model=%s slo=%s weight=%d\n" k.k_name k.k_model
           (match k.k_slo with None -> "none" | Some t -> string_of_int t)
           k.k_weight))
    r.mt_class_list;
  let class_name i = (List.nth r.mt_class_list i).k_name in
  List.iter
    (fun (q, o) ->
      Buffer.add_string buf
        (match o with
        | Mt_served s ->
            Printf.sprintf "req %d class=%s served digest=%s service=%d \
                            pred-sojourn=%d\n"
              q.q_id (class_name q.q_class) s.mo_digest s.mo_service
              s.mo_pred_sojourn
        | Mt_shed_queue { mo_window } ->
            Printf.sprintf "req %d class=%s shed-queue window=%d\n" q.q_id
              (class_name q.q_class) mo_window
        | Mt_shed_slo { mo_pred_sojourn } ->
            Printf.sprintf "req %d class=%s shed-slo pred-sojourn=%d\n" q.q_id
              (class_name q.q_class) mo_pred_sojourn))
    r.mt_outcomes;
  Buffer.add_string buf
    (Printf.sprintf "outcomes served=%d shed-queue=%d shed-slo=%d\n" r.mt_served
       r.mt_shed_queue r.mt_shed_slo);
  List.iter
    (fun cs ->
      Buffer.add_string buf
        (Printf.sprintf
           "class %s requests=%d served=%d shed-queue=%d shed-slo=%d\n"
           cs.cs_name cs.cs_requests cs.cs_served cs.cs_shed_queue cs.cs_shed_slo);
      pp_percentiles buf (Printf.sprintf "class %s service" cs.cs_name)
        cs.cs_service)
    r.mt_class_stats;
  pp_percentiles buf "service" r.mt_service;
  Buffer.contents buf

let mt_summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "served %d/%d requests (%d shed at ingress, %d shed by SLO) on %d \
        instance(s), batch %d, placement %s\n"
       r.mt_served
       (List.length r.mt_outcomes)
       r.mt_shed_queue r.mt_shed_slo r.mt_cfg.mt_workers r.mt_batch
       (placement_to_string r.mt_cfg.mt_placement));
  Buffer.add_string buf
    (Printf.sprintf
       "makespan %d cycles, throughput %.1f req/s, %d model swap(s)\n"
       r.mt_makespan r.mt_throughput_rps r.mt_swaps);
  if r.mt_cfg.mt_health <> None || r.mt_cfg.mt_degraded_instances <> [] then
    Buffer.add_string buf
      (Printf.sprintf "health: %d fail-open dispatch(es)\n" r.mt_fail_open);
  List.iter
    (fun cs ->
      Buffer.add_string buf
        (Printf.sprintf
           "class %s [%s]: %d/%d served, %d shed-queue, %d shed-slo%s, \
            p50=%d p99=%d\n"
           cs.cs_name cs.cs_model cs.cs_served cs.cs_requests cs.cs_shed_queue
           cs.cs_shed_slo
           (match cs.cs_slo with
           | None -> ""
           | Some t ->
               Printf.sprintf ", slo %d: %d observed violation(s)" t
                 cs.cs_observed_violations)
           cs.cs_service.p50 cs.cs_service.p99))
    r.mt_class_stats;
  pp_percentiles buf "service latency (cycles)" r.mt_service;
  pp_percentiles buf "sojourn latency (cycles)" r.mt_sojourn;
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf
           "instance %d: %d batch(es), %d served, %d swap(s), busy %d cycles \
            (%.1f%% utilization)%s"
           i.mi_id i.mi_batches i.mi_served i.mi_swaps i.mi_busy
           (100.0 *. i.mi_utilization)
           (match i.mi_model with
           | None -> ""
           | Some m -> Printf.sprintf ", model %s resident" m)
        ^ health_suffix i.mi_health ^ "\n"))
    r.mt_instances;
  Buffer.contents buf

let mt_to_json r =
  let class_name i = (List.nth r.mt_class_list i).k_name in
  let outcome_json (q, o) =
    let base =
      [
        ("id", J.Int q.q_id);
        ("class", J.Str (class_name q.q_class));
        ("arrival", J.Int q.q_arrival);
        ("input_seed", J.Int q.q_input_seed);
      ]
    in
    J.Obj
      (base
      @
      match o with
      | Mt_served s ->
          [
            ("outcome", J.Str "served");
            ("instance", J.Int s.mo_instance);
            ("batch", J.Int s.mo_batch);
            ("start", J.Int s.mo_start);
            ("finish", J.Int s.mo_finish);
            ("service_cycles", J.Int s.mo_service);
            ("pred_sojourn_cycles", J.Int s.mo_pred_sojourn);
            ("digest", J.Str s.mo_digest);
          ]
      | Mt_shed_queue { mo_window } ->
          [ ("outcome", J.Str "shed_queue"); ("window", J.Int mo_window) ]
      | Mt_shed_slo { mo_pred_sojourn } ->
          [
            ("outcome", J.Str "shed_slo");
            ("pred_sojourn_cycles", J.Int mo_pred_sojourn);
          ])
  in
  let class_json cs =
    J.Obj
      [
        ("name", J.Str cs.cs_name);
        ("model", J.Str cs.cs_model);
        ("slo_cycles", match cs.cs_slo with None -> J.Null | Some t -> J.Int t);
        ("weight", J.Int cs.cs_weight);
        ("requests", J.Int cs.cs_requests);
        ("served", J.Int cs.cs_served);
        ("shed_queue", J.Int cs.cs_shed_queue);
        ("shed_slo", J.Int cs.cs_shed_slo);
        ("observed_violations", J.Int cs.cs_observed_violations);
        ("service_cycles", percentiles_json cs.cs_service);
      ]
  in
  let instance_json i =
    J.Obj
      [
        ("id", J.Int i.mi_id);
        ("batches", J.Int i.mi_batches);
        ("served", J.Int i.mi_served);
        ("busy_cycles", J.Int i.mi_busy);
        ("swaps", J.Int i.mi_swaps);
        ("utilization", J.Float i.mi_utilization);
        ("model", match i.mi_model with None -> J.Null | Some m -> J.Str m);
        ( "health",
          match i.mi_health with None -> J.Null | Some hs -> health_stat_json hs
        );
      ]
  in
  J.Obj
    [
      ("seed", J.Int r.mt_cfg.mt_seed);
      ("requests", J.Int (List.length r.mt_outcomes));
      ("workers", J.Int r.mt_cfg.mt_workers);
      ("batch", J.Int r.mt_batch);
      ("queue_depth", J.Int r.mt_cfg.mt_queue_depth);
      ("arrival", J.Str (mt_arrival_to_string r));
      ("window_cycles", J.Int r.mt_resolved_window);
      ("dispatch_overhead_cycles", J.Int r.mt_cfg.mt_dispatch_overhead);
      ("swap_overhead_cycles", J.Int r.mt_cfg.mt_swap_overhead);
      ("placement", J.Str (placement_to_string r.mt_cfg.mt_placement));
      ("served", J.Int r.mt_served);
      ("shed_queue", J.Int r.mt_shed_queue);
      ("shed_slo", J.Int r.mt_shed_slo);
      ("swaps", J.Int r.mt_swaps);
      ("fail_open", J.Int r.mt_fail_open);
      ("service_cycles", percentiles_json r.mt_service);
      ("sojourn_cycles", percentiles_json r.mt_sojourn);
      ("makespan_cycles", J.Int r.mt_makespan);
      ("throughput_rps", J.Float r.mt_throughput_rps);
      ("classes", J.List (List.map class_json r.mt_class_stats));
      ("instances", J.List (List.map instance_json r.mt_instances));
      ("outcomes", J.List (List.map outcome_json r.mt_outcomes));
      ("metrics", Metrics.to_json r.mt_metrics);
    ]

(* --- rendering -------------------------------------------------------- *)

let arrival_to_string report =
  match report.r_config.arrival with
  | Closed -> "closed"
  | Poisson _ -> Printf.sprintf "poisson gap %d" report.r_mean_gap

(* The functional ledger: everything here is a pure function of the
   config seed (and the artifact), never of workers or jobs. Instance
   assignments, waits, makespan and throughput are deliberately absent. *)
let tally r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "htvm-serve-tally v2\n";
  Buffer.add_string buf
    (Printf.sprintf
       "seed %d requests %d arrival %s batch %d queue-depth %d window %d \
        input-mix %d\n"
       r.r_config.seed r.r_config.requests (arrival_to_string r)
       r.r_config.max_batch r.r_config.queue_depth r.r_window
       r.r_config.input_mix);
  Buffer.add_string buf
    (Printf.sprintf "plan %s retry-budget %d\n"
       (Fault.Plan.to_string r.r_config.plan)
       r.r_config.retry_budget);
  (* Health lines are conditional, like the slo footer: the resolved
     lifecycle config and the predicted-plane stats are pure functions
     of the config seed. *)
  (match r.r_health with
  | Some h ->
      let c = h.h_config in
      Buffer.add_string buf
        (Printf.sprintf
           "health threshold=%d probation=%d interval=%d cost=%d passes=%d \
            cap=%d fail-ppm=%d seed=%d\n"
           c.Health.fault_threshold c.Health.probation_window
           c.Health.probe_interval c.Health.probe_cost c.Health.pass_threshold
           c.Health.backoff_cap
           (int_of_float (c.Health.probe_fail_prob *. 1_000_000.))
           c.Health.probe_seed)
  | None -> ());
  List.iter
    (fun (req, o) ->
      Buffer.add_string buf
        (match o with
        | Served s ->
            Printf.sprintf
              "req %d served digest=%s service=%d pred-sojourn=%d faults=%d/%d \
               retries=%d\n"
              req.r_id s.o_digest s.o_service s.o_pred_sojourn s.o_detected
              s.o_silent s.o_retries
        | Rejected { o_window } ->
            Printf.sprintf "req %d rejected window=%d\n" req.r_id o_window
        | Aborted a ->
            Printf.sprintf "req %d aborted site=%s attempts=%d\n" req.r_id a.o_site
              a.o_attempts))
    r.r_outcomes;
  Buffer.add_string buf
    (Printf.sprintf "outcomes served=%d rejected=%d aborted=%d\n" r.r_served
       r.r_rejected r.r_aborted);
  (* Distinct-payload accounting: how much the input-mix pool collapsed
     the stream, and how many distinct answers it produced. A pure
     function of the seed, like every other tally line. *)
  let distinct xs = List.length (List.sort_uniq compare xs) in
  Buffer.add_string buf
    (Printf.sprintf "digests distinct-inputs=%d distinct-outputs=%d\n"
       (distinct (List.map (fun (req, _) -> req.r_input_seed) r.r_outcomes))
       (distinct
          (List.filter_map
             (function _, Served s -> Some s.o_digest | _ -> None)
             r.r_outcomes)));
  (* Predicted violations only: the observed count depends on the fleet
     shape and has no place in the functional ledger. *)
  (match r.r_slo with
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf "slo target=%d pred-violations=%d pred-violation-rate=%.4f\n"
           s.s_target s.s_pred_violations s.s_pred_violation_rate)
  | None -> ());
  (* Predicted plane only: observed fail-open and per-instance lifecycle
     stats move with the fleet shape and stay out of the ledger. *)
  (match r.r_health with
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf
           "health pred-state=%s transitions=%d readmissions=%d relapses=%d \
            probe-cycles=%d fail-open=%d shed=%d\n"
           (Health.state_label h.h_pred_state)
           h.h_pred_transitions h.h_pred_readmissions h.h_pred_relapses
           h.h_pred_probe_cycles h.h_pred_fail_open h.h_shed)
  | None -> ());
  pp_percentiles buf "service" r.r_service;
  Buffer.contents buf

let summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "served %d/%d requests (%d shed, %d aborted) on %d instance(s), %d \
        batch(es)\n"
       r.r_served r.r_config.requests r.r_rejected r.r_aborted r.r_config.workers
       (List.fold_left (fun acc i -> acc + i.i_batches) 0 r.r_instances));
  Buffer.add_string buf
    (Printf.sprintf "makespan %d cycles, throughput %.1f req/s, shed rate %.1f%%\n"
       r.r_makespan r.r_throughput_rps (100.0 *. r.r_shed_rate));
  if r.r_config.memoize then
    Buffer.add_string buf
      (Printf.sprintf "memoize: %d hit(s), %d distinct input(s) executed\n"
         r.r_memo_hits r.r_memo_misses);
  (match r.r_slo with
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "slo %d cycles: %d predicted / %d observed violation(s), predicted \
            rate %.1f%%\n"
           s.s_target s.s_pred_violations s.s_observed_violations
           (100.0 *. s.s_pred_violation_rate))
  | None -> ());
  (match r.r_health with
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf
           "health: pred %s, %d readmission(s), %d relapse(s), %d probe \
            cycles, %d shed, %d pred / %d observed fail-open\n"
           (Health.state_label h.h_pred_state)
           h.h_pred_readmissions h.h_pred_relapses h.h_pred_probe_cycles
           h.h_shed h.h_pred_fail_open r.r_fail_open)
  | None -> ());
  pp_percentiles buf "service latency (cycles)" r.r_service;
  pp_percentiles buf "sojourn latency (cycles)" r.r_sojourn;
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf
           "instance %d: %d batch(es), %d served, %d aborted, busy %d cycles \
            (%.1f%% utilization), %d fault(s)%s%s\n"
           i.i_id i.i_batches i.i_served i.i_aborted i.i_busy
           (100.0 *. i.i_utilization) i.i_faults
           (match i.i_degraded_at with
           | None -> ""
           | Some 0 -> ", degraded from start"
           | Some t -> Printf.sprintf ", degraded at cycle %d" t)
           (health_suffix i.i_health)))
    r.r_instances;
  Buffer.contents buf

let to_json r =
  let outcome_json (req, o) =
    let base = [ ("id", J.Int req.r_id); ("arrival", J.Int req.r_arrival) ] in
    J.Obj
      (base
      @
      match o with
      | Served s ->
          [
            ("outcome", J.Str "served");
            ("instance", J.Int s.o_instance);
            ("batch", J.Int s.o_batch);
            ("start", J.Int s.o_start);
            ("finish", J.Int s.o_finish);
            ("service_cycles", J.Int s.o_service);
            ("pred_sojourn_cycles", J.Int s.o_pred_sojourn);
            ("wait_cycles", J.Int s.o_wait);
            ("digest", J.Str s.o_digest);
            ("faults_detected", J.Int s.o_detected);
            ("faults_silent", J.Int s.o_silent);
            ("retries", J.Int s.o_retries);
          ]
      | Rejected { o_window } ->
          [ ("outcome", J.Str "rejected"); ("window", J.Int o_window) ]
      | Aborted a ->
          [
            ("outcome", J.Str "aborted");
            ("instance", J.Int a.o_instance);
            ("batch", J.Int a.o_batch);
            ("site", J.Str a.o_site);
            ("attempts", J.Int a.o_attempts);
          ])
  in
  let instance_json i =
    J.Obj
      [
        ("id", J.Int i.i_id);
        ("batches", J.Int i.i_batches);
        ("served", J.Int i.i_served);
        ("aborted", J.Int i.i_aborted);
        ("busy_cycles", J.Int i.i_busy);
        ("utilization", J.Float i.i_utilization);
        ("faults", J.Int i.i_faults);
        ( "degraded_at",
          match i.i_degraded_at with None -> J.Null | Some t -> J.Int t );
        ( "health",
          match i.i_health with None -> J.Null | Some hs -> health_stat_json hs
        );
        ("dma_bytes_in", J.Int i.i_totals.Sim.Counters.dma_bytes_in);
        ("dma_bytes_out", J.Int i.i_totals.Sim.Counters.dma_bytes_out);
      ]
  in
  J.Obj
    [
      ("seed", J.Int r.r_config.seed);
      ("requests", J.Int r.r_config.requests);
      ("workers", J.Int r.r_config.workers);
      ("max_batch", J.Int r.r_config.max_batch);
      ("queue_depth", J.Int r.r_config.queue_depth);
      ("arrival", J.Str (arrival_to_string r));
      ("window_cycles", J.Int r.r_window);
      ("dispatch_overhead_cycles", J.Int r.r_config.dispatch_overhead);
      ("plan", J.Str (Fault.Plan.to_string r.r_config.plan));
      ("input_mix", J.Int r.r_config.input_mix);
      ("memoize", J.Bool r.r_config.memoize);
      ("memo_hits", J.Int r.r_memo_hits);
      ("memo_misses", J.Int r.r_memo_misses);
      ("served", J.Int r.r_served);
      ("rejected", J.Int r.r_rejected);
      ("aborted", J.Int r.r_aborted);
      ("shed_rate", J.Float r.r_shed_rate);
      ("service_cycles", percentiles_json r.r_service);
      ("sojourn_cycles", percentiles_json r.r_sojourn);
      ("makespan_cycles", J.Int r.r_makespan);
      ("throughput_rps", J.Float r.r_throughput_rps);
      ( "slo",
        match r.r_slo with
        | None -> J.Null
        | Some s ->
            J.Obj
              [
                ("target_cycles", J.Int s.s_target);
                ("pred_violations", J.Int s.s_pred_violations);
                ("observed_violations", J.Int s.s_observed_violations);
                ("pred_violation_rate", J.Float s.s_pred_violation_rate);
              ] );
      ( "health",
        match r.r_health with
        | None -> J.Null
        | Some h ->
            J.Obj
              [
                ("pred_state", J.Str (Health.state_label h.h_pred_state));
                ("pred_transitions", J.Int h.h_pred_transitions);
                ("pred_readmissions", J.Int h.h_pred_readmissions);
                ("pred_relapses", J.Int h.h_pred_relapses);
                ("pred_probe_cycles", J.Int h.h_pred_probe_cycles);
                ("pred_fail_open", J.Int h.h_pred_fail_open);
                ("shed", J.Int h.h_shed);
                ( "probation_window",
                  J.Int h.h_config.Health.probation_window );
                ("probe_interval", J.Int h.h_config.Health.probe_interval);
                ("probe_cost", J.Int h.h_config.Health.probe_cost);
                ("backoff_cap", J.Int h.h_config.Health.backoff_cap);
              ] );
      ("fail_open", J.Int r.r_fail_open);
      ("instances", J.List (List.map instance_json r.r_instances));
      ("outcomes", J.List (List.map outcome_json r.r_outcomes));
      ("metrics", Metrics.to_json r.r_metrics);
    ]

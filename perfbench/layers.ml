(* Calls into the repo's layers shared by the workloads: timed compiles,
   correctness references (goldens, the interpreter), plan-step
   attribution, store probes and the DIANA cycle breakdown. *)

module C = Htvm.Compile
module H = Harness

let golden_dir = "test/golden"

(** The stock deployment config on one host domain, no in-memory cache. *)
let config platform = { (C.default_config platform) with C.jobs = 1; C.solver_cache = None }

(** Timed compile of the case [what], recorded as a ["compile <kind>"]
    span. A resource error is a legitimate outcome; any other error or
    exception is a failed operation. *)
let compile ctx ?store ?metrics ~kind ~what cfg g =
  let what = kind ^ " " ^ what in
  let r, dt =
    H.timed (fun () ->
        H.span ctx ~layer:"Htvm.Compile" ("compile " ^ kind) (fun () ->
            H.guard ctx what (fun () -> C.compile ?store ?metrics cfg g)))
  in
  let a =
    match r with
    | None -> None
    | Some (Ok a) ->
        H.attempt ctx;
        Some a
    | Some (Error e) when C.is_resource_error e ->
        H.attempt ctx;
        None
    | Some (Error e) ->
        H.check ctx false (what ^ ": " ^ C.error_to_string e);
        None
  in
  (a, dt)

let phases = [ "simplify"; "partition"; "lower"; "fuse"; "memplan"; "plan"; "emit" ]

(** Record the wall-track phase gauges of one compile's registry. *)
let add_phases ctx reg =
  List.iter
    (fun (m : Metrics.metric) ->
      match (m.m_name, m.m_labels, m.m_value) with
      | "htvm_wall_compile_phase_seconds", [ ("phase", p) ], Metrics.Gauge v
        when List.mem p phases ->
          H.add ctx ("compile.phase." ^ p ^ "_ms") (H.ms v)
      | _ -> ())
    (Metrics.snapshot reg)

(** Per-compile means of the phase samples over [compiles] compiles. *)
let set_phases ctx ~compiles =
  List.iter
    (fun p ->
      let k = "compile.phase." ^ p ^ "_ms" in
      H.set ctx k (List.fold_left ( +. ) 0. (H.samples ctx k) /. float (max 1 compiles)))
    phases

(** Summed solver totals of the given compiles. *)
let set_dory_solver ctx (stats : C.solver_stats list) =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let explored = sum (fun s -> s.C.ss_explored) in
  H.set ctx "dory.tiling.explored" (float explored);
  H.set ctx "dory.tiling.pruned" (float (sum (fun s -> s.C.ss_pruned)));
  H.set ctx "dory.tiling.feasible_ratio"
    (H.ratio (float (explored - sum (fun s -> s.C.ss_infeasible))) (float explored))

(** Run a zoo artifact on the golden input and compare digest, cycles,
    size and L2 split with the committed snapshot. Returns the report. *)
let golden ctx ~model ~config (a : C.artifact) g =
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  let what = Printf.sprintf "%s/%s golden run" model config in
  H.span ctx ~layer:"Check" "Golden" @@ fun () ->
  match
    H.guard ctx what (fun () -> H.span ctx ~layer:"Htvm.Compile" "run" (fun () -> C.run a ~inputs))
  with
  | None -> None
  | Some (out, rep) ->
      let actual =
        {
          Check.Golden.ge_model = model;
          ge_config = config;
          ge_output_digest = Check.Golden.digest_tensor out;
          ge_wall_cycles = C.full_cycles rep;
          ge_binary_bytes = a.C.size.Codegen.Size.total_bytes;
          ge_l2_static_bytes = a.C.l2_static_bytes;
          ge_l2_arena_bytes = a.C.l2_arena_bytes;
        }
      in
      (match Check.Golden.load ~dir:golden_dir ~model ~config with
      | Error e -> H.check ctx false e
      | Ok expected ->
          let d = Check.Golden.diff ~expected ~actual in
          H.check ctx (d = []) (what ^ ": " ^ String.concat "; " d));
      Some rep

(** Compare a served output digest with the reference interpreter. *)
let eval_check ctx ~req g ~input_seed digest =
  let what = Printf.sprintf "request %d vs Ir.Eval" req in
  let inputs = Models.Zoo.random_input ~seed:input_seed g in
  match
    H.guard ctx what (fun () ->
        H.span ctx ~layer:"Check" ~req "Ir.Eval.run" (fun () -> Ir.Eval.run g ~inputs))
  with
  | Some t -> H.check ctx (Check.Golden.digest_tensor t = digest) what
  | None -> ()

(** Sum of a list of counters. *)
let total_counters cs =
  let t = Sim.Counters.create () in
  List.iter (Sim.Counters.add t) cs;
  t

(** DIANA cycle breakdown per request from summed counters. *)
let set_cycles ctx (t : Sim.Counters.t) ~requests =
  let per v = float v /. float (max 1 requests) in
  let open Sim.Counters in
  List.iter
    (fun (k, v) -> H.set ctx ("sim.cycles." ^ k) (per v))
    [
      ("accel", t.accel_compute);
      ("wload", t.weight_load);
      ("dma", t.dma_in + t.dma_out);
      ("host", t.host_overhead);
      ("cpu", t.cpu_compute);
      ("stall", t.stall);
    ]

(** One fault-free request through [Htvm.Compile.run] (the plan path),
    then every accelerator step again through [Sim.Plan.run_accel_step]
    on a rewound arena, each timed. Adds per-request samples for
    [sim.plan.*] and [sim.cpu_ms_per_req], checks the replayed step
    counters against the run's, and returns the run's report. *)
let attribute ctx (a : C.artifact) ~inputs ~req =
  let what = Printf.sprintf "request %d plan run" req in
  match
    H.guard ctx what (fun () ->
        H.timed (fun () ->
            H.span ctx ~layer:"Htvm.Compile" ~req "run" (fun () -> C.run a ~inputs)))
  with
  | None -> None
  | Some ((_, rep), wall) ->
      let l2, l1 = Sim.Plan.checkout a.C.plan in
      let analog = ref 0. and digital = ref 0. and macs = ref 0 in
      List.iteri
        (fun i step ->
          match step with
          | Sim.Program.Accel { accel_name; schedule; _ } ->
              let c, dt =
                H.timed (fun () ->
                    H.span ctx ~layer:"Sim.Plan" ~req ("run_accel_step " ^ accel_name)
                      (fun () ->
                        Sim.Plan.run_accel_step a.C.plan ~step_index:i ~l2 ~l1 ~t0:0 ()))
              in
              let expected = snd (List.nth rep.Sim.Machine.per_step i) in
              H.check ctx
                (Sim.Counters.fields c = Sim.Counters.fields expected)
                (Printf.sprintf "request %d step %d: replayed counters differ" req i);
              if accel_name = Arch.Diana.analog.Arch.Accel.accel_name then begin
                analog := !analog +. dt;
                macs := !macs + Ir.Layer.macs schedule.Dory.Schedule.layer
              end
              else digital := !digital +. dt
          | Sim.Program.Cpu _ -> ())
        a.C.program.Sim.Program.steps;
      H.add ctx "analog_s" !analog;
      H.add ctx "analog_macs" (float !macs);
      H.add ctx "digital_s" !digital;
      H.add ctx "cpu_s" (wall -. !analog -. !digital);
      Some rep

(** Set the [sim.plan.*] kernel metrics from {!attribute}'s samples. *)
let set_plan_kernels ctx =
  let m k = H.mean (H.samples ctx k) in
  let sum k = List.fold_left ( +. ) 0. (H.samples ctx k) in
  H.set ctx "sim.plan.analog_ms_per_req" (H.ms (m "analog_s"));
  H.set ctx "sim.plan.digital_ms_per_req" (H.ms (m "digital_s"));
  H.set ctx "sim.cpu_ms_per_req" (H.ms (m "cpu_s"));
  H.set ctx "sim.plan.analog_mmac_per_s" (H.ratio (sum "analog_macs" /. 1e6) (sum "analog_s"))

(** Plan build wall and scratch footprint of one artifact's program. *)
let plan_build ctx (a : C.artifact) =
  let p, dt =
    H.timed (fun () ->
        H.span ctx ~layer:"Sim.Plan" "build" (fun () ->
            Sim.Plan.build ~platform:a.C.cfg.C.platform a.C.program))
  in
  H.add ctx "sim.plan.build_ms" (H.ms dt);
  H.add ctx "sim.plan.scratch_kwords" (float (Sim.Plan.stats p).Sim.Plan.scratch_words /. 1000.);
  dt

(** Time the parts of a warm store compile that the benchmark can call on
    their own: the artifact key, the verified find (on a second handle,
    so the compile's own counters stay untouched) and the plan rebuild.
    The remainder of the measured warm compile is the decode. *)
let store_probe ctx root cfg g (a : C.artifact) ~warm_s =
  let key, key_s =
    H.timed (fun () ->
        H.span ctx ~layer:"Store" "artifact_store_key" (fun () -> C.artifact_store_key cfg g))
  in
  let probe = Store.open_root root in
  let payload, find_s =
    H.timed (fun () ->
        H.span ctx ~layer:"Store" "find" (fun () -> Store.find probe Store.Artifact ~key))
  in
  let build_s = plan_build ctx a in
  H.add ctx "store.key_ms" (H.ms key_s);
  H.add ctx "store.find_ms" (H.ms find_s);
  H.add ctx "store.decode_ms" (H.ms (warm_s -. key_s -. find_s -. build_s));
  H.add ctx "store.payload_kb"
    (float (String.length (Option.value ~default:"" payload)) /. 1024.)

(** Means of the store probes and plan builds, plus the handle counters. *)
let set_store ctx ~hits ~misses ~rejects =
  List.iter
    (fun k -> H.set ctx k (H.mean (H.samples ctx k)))
    [ "store.key_ms"; "store.find_ms"; "store.decode_ms"; "store.payload_kb";
      "sim.plan.build_ms"; "sim.plan.scratch_kwords" ];
  H.set ctx "store.hits" (float hits);
  H.set ctx "store.misses" (float misses);
  H.set ctx "store.rejects" (float rejects);
  H.set ctx "store.hit_ratio" (H.ratio (float hits) (float (hits + misses)))

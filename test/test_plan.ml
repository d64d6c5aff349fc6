(* Differential conformance for compiled execution plans (Sim.Plan): the
   fast path must be byte-identical to the slow oracle (Sim.Machine.run
   without a plan) — output bytes, per-step counters, aggregate counters
   and trace events — on zoo models and randomly generated graphs and
   configs, fault-free and under fault sessions (where session stats and
   aborts must match too). Plans are rejected for programs they were not
   built for. *)

module C = Htvm.Compile

let oracle ?trace ?faults artifact ~inputs =
  Sim.Machine.run ~platform:artifact.C.cfg.C.platform ?trace ?faults
    artifact.C.program ~inputs

let compare_counters label a b =
  List.iter2
    (fun (n, x) (_, y) -> Alcotest.(check int) (label ^ ": " ^ n) x y)
    (Sim.Counters.fields a) (Sim.Counters.fields b)

let compare_reports label (slow : Sim.Machine.report) (fast : Sim.Machine.report) =
  Alcotest.(check int)
    (label ^ ": step count")
    (List.length slow.Sim.Machine.per_step)
    (List.length fast.Sim.Machine.per_step);
  List.iter2
    (fun (n1, c1) (n2, c2) ->
      Alcotest.(check string) (label ^ ": step name") n1 n2;
      compare_counters (label ^ "/" ^ n1) c1 c2)
    slow.Sim.Machine.per_step fast.Sim.Machine.per_step;
  compare_counters (label ^ ": totals") slow.Sim.Machine.totals
    fast.Sim.Machine.totals

let compare_outputs label slow fast =
  if not (Tensor.equal slow fast) then
    Alcotest.failf "%s: plan output differs (max diff %d)" label
      (Tensor.max_abs_diff slow fast)

(* Trace events carry name/cat/track/ts/dur/kind/args; both paths are
   deterministic, so the full event lists must match structurally. *)
let compare_traces label slow fast =
  Alcotest.(check int)
    (label ^ ": trace event count")
    (List.length (Trace.events slow))
    (List.length (Trace.events fast));
  Alcotest.(check bool) (label ^ ": trace events identical") true
    (Trace.events slow = Trace.events fast)

(* One run under a fresh session of [plan]: the output (or the abort,
   or any other exception), the report, the trace events and the
   session's stats. *)
let run_faulty run plan =
  let faults = Fault.Session.create plan in
  let trace = Trace.create () in
  let result =
    match run ~trace ~faults with
    | r -> Ok r
    | exception Fault.Session.Unrecovered { site; attempts } ->
        Error (Printf.sprintf "unrecovered at %s after %d attempt(s)" site attempts)
    | exception e -> Error (Printexc.to_string e)
  in
  (result, Trace.events trace, Fault.Session.stats faults)

(* The plan must consult the session exactly as the oracle does. *)
let fault_differential label artifact ~inputs plan =
  let label = label ^ " under " ^ Fault.Plan.to_string plan in
  let slow, ev_slow, st_slow =
    run_faulty (fun ~trace ~faults -> oracle ~trace ~faults artifact ~inputs) plan
  in
  let fast, ev_fast, st_fast =
    run_faulty (fun ~trace ~faults -> C.run ~trace ~faults artifact ~inputs) plan
  in
  (match (slow, fast) with
  | Ok (out_slow, rep_slow), Ok (out_fast, rep_fast) ->
      compare_outputs label out_slow out_fast;
      compare_reports label rep_slow rep_fast
  | Error e, Error e' -> Alcotest.(check string) (label ^ ": same failure") e e'
  | Ok _, Error e -> Alcotest.failf "%s: only the plan failed: %s" label e
  | Error e, Ok _ -> Alcotest.failf "%s: only the oracle failed: %s" label e);
  Alcotest.(check bool) (label ^ ": trace events identical") true (ev_slow = ev_fast);
  Alcotest.(check (list (pair string int)))
    (label ^ ": session stats")
    (Fault.Session.stats_fields st_slow)
    (Fault.Session.stats_fields st_fast)

(* Hand-written plans covering every site and kind: detected flips and
   drops with retries, stalls, silent compute flips, L1/L2 bit rot (L2
   rot re-resolves the weights the plan decoded at build time) and an
   always-drop abort. *)
let fault_plans =
  List.map
    (fun spec -> Result.get_ok (Fault.Plan.of_string spec))
    [
      "seed=1,dma_in@every=3:flip";
      "seed=2,dma_out@every=4:drop,dma_in@nth=2:stall=50";
      "seed=3,wload@p=0.3:flip,compute@p=0.3:flip,wload@nth=3:stall=20";
      "seed=4,compute@p=0.3:flip";
      "seed=5,compute@every=5:stall=300,compute(diana_digital)@every=4:drop";
      "seed=6,l1@every=2:flip=3,l1@nth=3:stall=40";
      "seed=7,l2@always:flip=8,compute(diana_analog)@p=0.2:flip";
      "seed=8,l2@every=2:flip=16,l2@nth=1:stall=10,dma_out@every=3:flip";
      "seed=9,dma_in@always:drop";
      "seed=10,l2@nth=1:flip=32,wload@nth=1:drop,compute@every=7:flip=3";
    ]

(* One zoo model per deployment configuration — every accelerator payload
   shape (cpu-only, digital, analog ternary, mixed) crosses the plan path
   on a real network, fault-free and under every plan of [fault_plans].
   The 16-case golden suite already runs the plan path end to end; this
   test pins the *differential* against the slow oracle including
   counters and traces, which digests cannot see. *)
let zoo_cases =
  [ ("ds_cnn", "cpu"); ("mobilenet_v1_025", "digital");
    ("toyadmos_dae", "analog"); ("resnet8", "both") ]

let test_zoo_differential () =
  List.iter
    (fun (model, config) ->
      let entry = Models.Zoo.find model in
      let _, platform, policy =
        List.find (fun (c, _, _) -> c = config) Check.Golden.configurations
      in
      let g = entry.Models.Zoo.build policy in
      let cfg =
        { (C.default_config platform) with C.jobs = 1; C.solver_cache = None }
      in
      let artifact =
        match C.compile cfg g with
        | Ok a -> a
        | Error e -> Alcotest.failf "%s/%s: %s" model config (C.error_to_string e)
      in
      let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
      let label = model ^ "/" ^ config in
      let tr_slow = Trace.create () and tr_fast = Trace.create () in
      let out_slow, rep_slow = oracle ~trace:tr_slow artifact ~inputs in
      let out_fast, rep_fast = C.run ~trace:tr_fast artifact ~inputs in
      compare_outputs label out_slow out_fast;
      compare_reports label rep_slow rep_fast;
      compare_traces label tr_slow tr_fast;
      (* Arena reuse across requests must not leak state: a second request
         with a different input still matches its own slow run. *)
      let inputs2 = Models.Zoo.random_input ~seed:(Check.Golden.input_seed + 1) g in
      let out_slow2, rep_slow2 = oracle artifact ~inputs:inputs2 in
      let out_fast2, rep_fast2 = C.run artifact ~inputs:inputs2 in
      compare_outputs (label ^ " (2nd request)") out_slow2 out_fast2;
      compare_reports (label ^ " (2nd request)") rep_slow2 rep_fast2;
      List.iter (fault_differential label artifact ~inputs) fault_plans)
    zoo_cases

(* Random graphs x random deployment configs: the fuzz generator's whole
   operator vocabulary (depthwise, strides, residual adds, concats,
   pooling, softmax heads, shrunken-L1 tilings) through both paths. *)
let test_random_differential () =
  let ran = ref 0 in
  for seed = 0 to 39 do
    let g = Check.Gen.generate seed in
    let cfg = { (Check.Gen.random_config seed) with C.solver_cache = None } in
    match C.compile cfg g with
    | Error _ -> () (* infeasible deployments are the fuzz suite's business *)
    | Ok artifact -> (
        let label = Printf.sprintf "seed %d" seed in
        let inputs = Models.Zoo.random_input ~seed g in
        match oracle artifact ~inputs with
        | exception e -> (
            (* If the slow oracle rejects the run, the plan path must fail
               identically — never silently produce bytes. *)
            match C.run artifact ~inputs with
            | exception e' ->
                Alcotest.(check string)
                  (label ^ ": same failure")
                  (Printexc.to_string e) (Printexc.to_string e')
            | _ ->
                Alcotest.failf "%s: slow path raised %s but plan path succeeded"
                  label (Printexc.to_string e))
        | out_slow, rep_slow ->
            incr ran;
            let out_fast, rep_fast = C.run artifact ~inputs in
            compare_outputs label out_slow out_fast;
            compare_reports label rep_slow rep_fast)
  done;
  Alcotest.(check bool) "enough random deployments actually ran" true (!ran >= 10)

let digital_artifact =
  lazy
    (let entry = Models.Zoo.find "resnet8" in
     let g = entry.Models.Zoo.build Models.Policy.All_int8 in
     let cfg =
       { (C.default_config Arch.Diana.digital_only) with
         C.jobs = 1; C.solver_cache = None }
     in
     (Result.get_ok (C.compile cfg g), g))

(* Plan stats agree with the program they were compiled from. *)
let test_stats () =
  let artifact, _ = Lazy.force digital_artifact in
  let stats = Sim.Plan.stats artifact.C.plan in
  let accel_steps =
    List.length
      (List.filter
         (function Sim.Program.Accel _ -> true | Sim.Program.Cpu _ -> false)
         artifact.C.program.Sim.Program.steps)
  in
  Alcotest.(check int) "accel steps" accel_steps stats.Sim.Plan.accel_steps;
  Alcotest.(check bool) "at least one tile per step" true
    (stats.Sim.Plan.tiles >= stats.Sim.Plan.accel_steps);
  Alcotest.(check bool) "scratch allocated" true (stats.Sim.Plan.scratch_words > 0);
  Alcotest.(check bool) "weight image captured" true (stats.Sim.Plan.image_bytes > 0);
  Alcotest.(check int) "int8 convs stay on the dense kernel" 0
    stats.Sim.Plan.ternary_tiles;
  Alcotest.(check bool) "program identity" true
    (Sim.Plan.program artifact.C.plan == artifact.C.program)

(* The per-domain arena is cached across checkouts; [~fresh] discards it. *)
let test_arena_reuse () =
  let artifact, g = Lazy.force digital_artifact in
  let plan = artifact.C.plan in
  let l2a, l1a = Sim.Plan.checkout plan in
  let l2b, l1b = Sim.Plan.checkout plan in
  Alcotest.(check bool) "L2 reused" true (l2a == l2b);
  Alcotest.(check bool) "L1 reused" true (l1a == l1b);
  let l2c, _ = Sim.Plan.checkout ~fresh:true plan in
  Alcotest.(check bool) "fresh discards the cache" true (not (l2c == l2a));
  (* A run on a freshly allocated arena reaches the same bytes. *)
  let inputs = Models.Zoo.random_input ~seed:3 g in
  let out_reuse, rep_reuse = C.run artifact ~inputs in
  ignore (Sim.Plan.checkout ~fresh:true plan);
  let out_fresh, rep_fresh = C.run artifact ~inputs in
  compare_outputs "fresh arena" out_reuse out_fresh;
  compare_reports "fresh arena" rep_reuse rep_fresh

(* The chaos campaign's own cases: random graphs and configs (a quarter
   with a degraded accelerator) under their random fault plan and one
   hand-written plan drawn from the table above. *)
let prop_chaos_fault_differential =
  Helpers.qtest ~count:100 "plan = oracle under chaos fault plans"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let cfg = { (Check.Gen.chaos_config seed) with C.solver_cache = None } in
      let g = Check.Gen.generate seed in
      (match C.compile cfg g with
      | Error _ -> ()
      | Ok artifact ->
          let inputs = Models.Zoo.random_input ~seed g in
          let label = Printf.sprintf "chaos seed %d" seed in
          fault_differential label artifact ~inputs (Check.Gen.random_fault_plan seed);
          fault_differential label artifact ~inputs
            (List.nth fault_plans (seed mod List.length fault_plans)));
      true)

(* The ternary tap kernel against the reference convolution over random
   ternary weights, groups, strides 1 and 2, asymmetric padding, fy <> fx
   and 1x1 FC-as-conv shapes. The reference runs on the explicitly padded
   input (and, when the padding is symmetric, on the raw input with
   [padding] set). *)
type tap_case = {
  tc_input : Tensor.t;
  tc_weights : Tensor.t;
  tc_stride : int * int;
  tc_groups : int;
  tc_pads : int * int * int * int;
}

let gen_tap_case =
  let open QCheck.Gen in
  let conv =
    int_range 1 3 >>= fun groups ->
    quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 3)
    >>= fun (cg, kpg, fy, fx) ->
    quad (int_range 0 2) (int_range 0 2) (int_range 0 2) (int_range 0 2)
    >>= fun pads ->
    pair (int_range 1 2) (int_range 1 2) >>= fun stride ->
    pair (int_range 1 7) (int_range 1 7) >|= fun (h, w) ->
    let pt, pb, pl, pr = pads in
    (* At least one output pixel. *)
    let h = max h (fy - pt - pb) and w = max w (fx - pl - pr) in
    ([| groups * cg; h; w |], [| groups * kpg; cg; fy; fx |], stride, groups, pads)
  in
  let fc =
    pair (int_range 1 24) (int_range 1 8) >|= fun (c, k) ->
    ([| c; 1; 1 |], [| k; c; 1; 1 |], (1, 1), 1, (0, 0, 0, 0))
  in
  frequency [ (3, conv); (1, fc) ] >>= fun (ishape, wshape, stride, groups, pads) ->
  pair bool int >|= fun (u7, seed) ->
  let rng = Util.Rng.create seed in
  let dt = if u7 then Tensor.Dtype.U7 else Tensor.Dtype.I8 in
  {
    tc_input = Tensor.random rng dt ishape;
    tc_weights = Tensor.random rng Tensor.Dtype.Ternary wshape;
    tc_stride = stride;
    tc_groups = groups;
    tc_pads = pads;
  }

let print_tap_case tc =
  let pt, pb, pl, pr = tc.tc_pads and sy, sx = tc.tc_stride in
  Printf.sprintf "groups=%d stride=(%d,%d) pads=(%d,%d,%d,%d)\ninput=%s\nweights=%s"
    tc.tc_groups sy sx pt pb pl pr (Tensor.to_string tc.tc_input)
    (Tensor.to_string tc.tc_weights)

let pad_input input (pt, pb, pl, pr) =
  let c = Tensor.dim input 0 and h = Tensor.dim input 1 and w = Tensor.dim input 2 in
  let out = Tensor.create (Tensor.dtype input) [| c; pt + h + pb; pl + w + pr |] in
  for ch = 0 to c - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        Tensor.set out [| ch; pt + y; pl + x |] (Tensor.get input [| ch; y; x |])
      done
    done
  done;
  out

let prop_ternary_taps =
  Helpers.qtest ~count:300 "ternary tap kernel = Nn.Kernels.conv2d"
    (QCheck.make ~print:print_tap_case gen_tap_case)
    (fun tc ->
      let taps =
        Sim.Plan.ternary_conv2d ~input:tc.tc_input ~weights:tc.tc_weights
          ~stride:tc.tc_stride ~groups:tc.tc_groups ~pads:tc.tc_pads
      in
      let params padding =
        { Nn.Kernels.stride = tc.tc_stride; padding; groups = tc.tc_groups }
      in
      let reference =
        Nn.Kernels.conv2d ~input:(pad_input tc.tc_input tc.tc_pads)
          ~weights:tc.tc_weights (params (0, 0))
      in
      let pt, pb, pl, pr = tc.tc_pads in
      Tensor.equal reference taps
      && (pt <> pb || pl <> pr
         || Tensor.equal taps
              (Nn.Kernels.conv2d ~input:tc.tc_input ~weights:tc.tc_weights
                 (params (pt, pl)))))

(* All-zero weights leave no taps at all: every accumulator is 0. *)
let test_ternary_taps_all_zero () =
  let input = Tensor.random (Util.Rng.create 5) Tensor.Dtype.I8 [| 4; 5; 6 |] in
  let weights = Tensor.create Tensor.Dtype.Ternary [| 6; 2; 3; 2 |] in
  let out =
    Sim.Plan.ternary_conv2d ~input ~weights ~stride:(2, 1) ~groups:2
      ~pads:(1, 0, 0, 1)
  in
  Helpers.check_tensor "all-zero weights"
    (Tensor.create Tensor.Dtype.I32 [| 6; 2; 6 |])
    out

(* Physical identity between plan and program is enforced, under a fault
   session too. *)
let test_foreign_plan_rejected () =
  let artifact, g = Lazy.force digital_artifact in
  let cfg =
    { (C.default_config Arch.Diana.digital_only) with
      C.jobs = 1; C.solver_cache = None }
  in
  let artifact2 = Result.get_ok (C.compile cfg g) in
  let inputs = Models.Zoo.random_input ~seed:3 g in
  List.iter
    (fun faults ->
      match
        Sim.Machine.run ~platform:artifact.C.cfg.C.platform ?faults
          ~plan:artifact.C.plan artifact2.C.program ~inputs
      with
      | _ -> Alcotest.fail "a foreign plan was accepted"
      | exception Invalid_argument _ -> ())
    [ None; Some (Fault.Session.create (List.hd fault_plans)) ]

let suites =
  [ ( "plan",
      [ Alcotest.test_case "zoo differential" `Quick test_zoo_differential;
        Alcotest.test_case "random differential" `Quick test_random_differential;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "arena reuse" `Quick test_arena_reuse;
        prop_chaos_fault_differential;
        prop_ternary_taps;
        Alcotest.test_case "ternary taps, all-zero weights" `Quick
          test_ternary_taps_all_zero;
        Alcotest.test_case "foreign plan rejected" `Quick
          test_foreign_plan_rejected;
      ] )
  ]

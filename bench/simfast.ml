(* "simfast" experiment: the compiled execution plan fast path
   (Sim.Plan) against the slow interpretive oracle (Sim.Machine.run
   without a plan). Measures per-request wall time on the oracle and on
   the plan, with the scratch arena reused and discarded, and the serving
   memoization hit path — while asserting the byte-identity contract:
   output digests and simulated cycle counts must not move at all, and a
   request under a fault plan that fires on every site must give the same
   digest, counters and session stats on both paths. Fails when no tile
   runs the ternary tap kernel. Dumps BENCH_simfast.json. *)

module J = Trace.Json
module C = Htvm.Compile

let out_file = "BENCH_simfast.json"

let artifact_and_graph () =
  let g = (Models.Zoo.find Models.Resnet8.name).Models.Zoo.build Models.Policy.Mixed in
  let cfg = { (C.default_config Arch.Diana.platform) with C.jobs = 1 } in
  match C.compile cfg g with
  | Ok a -> (a, g)
  | Error e ->
      Printf.eprintf "simfast bench: compile failed: %s\n" (C.error_to_string e);
      exit 1

(* Milliseconds per call over [repeats] calls, plus the last result. *)
let time_ms ~repeats f =
  let result = ref (f ()) in
  let t0 = Unix.gettimeofday () in
  for _ = 2 to repeats do
    result := f ()
  done;
  let t1 = Unix.gettimeofday () in
  let calls = max 1 (repeats - 1) in
  ((t1 -. t0) *. 1000.0 /. float_of_int calls, !result)

let run_simfast ~smoke () =
  let repeats = if smoke then 3 else 20 in
  let artifact, g = artifact_and_graph () in
  let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed g in
  Printf.printf "== simfast: compiled plans vs the slow oracle (%s, %d run(s)/variant) ==\n%!"
    Models.Resnet8.name repeats;
  let oracle ?faults () =
    Sim.Machine.run ~platform:artifact.C.cfg.C.platform ?faults artifact.C.program
      ~inputs
  in
  let slow_ms, (out_slow, rep_slow) = time_ms ~repeats (fun () -> oracle ()) in
  let fast_ms, (out_fast, rep_fast) =
    time_ms ~repeats (fun () -> C.run artifact ~inputs)
  in
  let noarena_ms, (out_noarena, rep_noarena) =
    time_ms ~repeats (fun () ->
        ignore (Sim.Plan.checkout ~fresh:true artifact.C.plan);
        C.run artifact ~inputs)
  in
  (* The contract first: the fast paths are only fast if they are also
     byte-identical to the oracle. *)
  let digest = Check.Golden.digest_tensor in
  let fail fmt =
    Printf.ksprintf (fun m -> prerr_endline ("simfast bench: " ^ m); exit 1) fmt
  in
  let check name out rep =
    if digest out <> digest out_slow then
      fail "%s output digest diverged from slow path" name;
    if C.full_cycles rep <> C.full_cycles rep_slow then
      fail "%s cycles diverged (%d vs %d)" name (C.full_cycles rep)
        (C.full_cycles rep_slow)
  in
  check "plan" out_fast rep_fast;
  check "plan (fresh arena)" out_noarena rep_noarena;
  (* One request under a plan that fires on every fault site, L2 bit rot
     included, through the plan and through the oracle. *)
  let fault_spec =
    "seed=3,dma_in@every=7:flip,dma_out@every=11:drop,wload@every=3:flip,\
     compute@every=4:stall=100,compute(diana_analog)@every=5:flip,\
     l1@every=4:flip,l2@every=6:flip=4"
  in
  let faulty run =
    let session =
      Fault.Session.create (Result.get_ok (Fault.Plan.of_string fault_spec))
    in
    let out, rep = run session in
    ( digest out,
      List.map (fun (_, c) -> Sim.Counters.fields c) rep.Sim.Machine.per_step,
      Fault.Session.stats session )
  in
  let ((_, _, stats) as on_plan) =
    faulty (fun faults -> C.run ~faults artifact ~inputs)
  in
  if on_plan <> faulty (fun faults -> oracle ~faults ()) then
    fail "digest, counters or session stats diverged under %s" fault_spec;
  if
    stats.Fault.Session.detected = 0 || stats.Fault.Session.silent = 0
    || stats.Fault.Session.stall_cycles = 0
  then fail "the fault plan left a detected, silent or stall fault unfired";
  (* resnet8/mixed runs its inner convs on the analog array: a plan that
     puts none of them on the tap kernel has fallen back to the dense
     multiply loop. *)
  let plan_stats = Sim.Plan.stats artifact.C.plan in
  if plan_stats.Sim.Plan.ternary_tiles = 0 then
    fail "no tile runs the ternary tap kernel (silent fallback to the dense loop)";
  let speedup = slow_ms /. fast_ms in
  let arena_gain = noarena_ms /. fast_ms in
  Printf.printf "  slow oracle   : %8.2f ms/request\n%!" slow_ms;
  Printf.printf "  plan + arena  : %8.2f ms/request  (%.2fx)\n%!" fast_ms speedup;
  Printf.printf "  plan, no arena: %8.2f ms/request  (arena worth %.2fx)\n%!"
    noarena_ms arena_gain;
  Printf.printf "  digests + cycles byte-identical across all paths\n%!";
  Printf.printf "  plan: %d tile(s), %d on the ternary tap kernel\n%!"
    plan_stats.Sim.Plan.tiles plan_stats.Sim.Plan.ternary_tiles;
  Printf.printf "  under faults: plan = oracle (%s)\n%!"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s %d" k v)
          (Fault.Session.stats_fields stats)));
  (* Memoize hit path: every request shares one input, so all but the
     first execution per instance is a table lookup. The tally must not
     move — memoization is telemetry-visible only. *)
  let serve_cfg memoize =
    { Serve.default with
      Serve.requests = (if smoke then 12 else 48);
      workers = 1; jobs = 1; input_mix = 1; memoize }
  in
  let memo_off_ms, r_off =
    time_ms ~repeats:(if smoke then 2 else 5) (fun () ->
        Serve.run (serve_cfg false) artifact ~graph:g)
  in
  let memo_on_ms, r_on =
    time_ms ~repeats:(if smoke then 2 else 5) (fun () ->
        Serve.run (serve_cfg true) artifact ~graph:g)
  in
  let tally_identical = Serve.tally r_off = Serve.tally r_on in
  Printf.printf
    "  memoize: %8.2f ms -> %8.2f ms per run (%d hit(s), %d distinct), tally identical: %b\n%!"
    memo_off_ms memo_on_ms r_on.Serve.r_memo_hits r_on.Serve.r_memo_misses
    tally_identical;
  if not tally_identical then begin
    Printf.eprintf "simfast bench: memoization moved the functional tally\n";
    exit 1
  end;
  if r_on.Serve.r_memo_hits = 0 then begin
    Printf.eprintf "simfast bench: memoize hit path never taken\n";
    exit 1
  end;
  let doc =
    J.Obj
      [ ("model", J.Str Models.Resnet8.name);
        ("platform", J.Str "diana (digital + analog)");
        ("nproc", J.Int (Util.Pool.available ()));
        ("ocaml_version", J.Str Sys.ocaml_version);
        ("repeats", J.Int repeats);
        ("slow_ms_per_request", J.Float slow_ms);
        ("plan_ms_per_request", J.Float fast_ms);
        ("plan_fresh_arena_ms_per_request", J.Float noarena_ms);
        ("speedup", J.Float speedup);
        ("arena_gain", J.Float arena_gain);
        ("output_digest", J.Str (digest out_slow));
        ("wall_cycles", J.Int (C.full_cycles rep_slow));
        ("digests_identical", J.Bool true);
        ( "plan_stats",
          J.Obj
            [ ("accel_steps", J.Int plan_stats.Sim.Plan.accel_steps);
              ("tiles", J.Int plan_stats.Sim.Plan.tiles);
              ("scratch_words", J.Int plan_stats.Sim.Plan.scratch_words);
              ("image_bytes", J.Int plan_stats.Sim.Plan.image_bytes);
              ("ternary_tiles", J.Int plan_stats.Sim.Plan.ternary_tiles) ] );
        ( "memoize",
          J.Obj
            [ ("off_ms_per_run", J.Float memo_off_ms);
              ("on_ms_per_run", J.Float memo_on_ms);
              ("hits", J.Int r_on.Serve.r_memo_hits);
              ("misses", J.Int r_on.Serve.r_memo_misses);
              ("tally_identical", J.Bool tally_identical) ] );
      ]
  in
  let oc = open_out out_file in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" out_file;
  (* The acceptance bar. Smoke runs (CI shared runners, 3 repeats) only
     sanity-check that the fast path did not regress outright. *)
  let bar = if smoke then 1.0 else 1.5 in
  if speedup < bar then begin
    Printf.eprintf "simfast bench: speedup %.2fx below the %.1fx bar\n" speedup bar;
    exit 1
  end

let run () = run_simfast ~smoke:false ()
let run_smoke () = run_simfast ~smoke:true ()

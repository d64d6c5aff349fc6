(* compile-mix: compile-only traffic; no request executes inside a
   compile's time.

   The 16 zoo cases (model x cpu|digital|analog|both) plus 192 generated
   Check.Gen cases drawn from the seed, each compiled three ways per
   pass: cold with no store, into the pass's fresh store (the writes),
   and warm from that store (the reads). One store holds every case of a
   pass, so cpu and digital of one All_int8 graph share it. Host time goes
   to Pattern, Dory, Codegen, Sim.Plan.build and Store; the kernels and
   the serving engine do not run. Between passes, the 16 zoo artifacts
   run on their golden inputs as one timed round: the workload's
   executed requests. *)

module C = Htvm.Compile
module H = Harness
module L = Layers

let generated = 192

(** Compiles per host sample in a pass (see {!Harness.host_timed_chunks}). *)
let chunk = 16

type case = {
  name : string;
  graph : Ir.Graph.t;
  config : unit -> C.config;
      (** fresh per pass: a generated config may carry an in-memory
          tiling cache, which must not leak warmth across passes *)
  zoo : (string * string) option;  (** (model, config) of a zoo case *)
  key : string;  (** the artifact-tier store key *)
}

let build_cases seed =
  let zoo =
    List.concat_map
      (fun (e : Models.Zoo.entry) ->
        List.map
          (fun (config, platform, policy) ->
            let graph = e.Models.Zoo.build policy in
            let cfg = L.config platform in
            { name = e.Models.Zoo.model_name ^ "/" ^ config; graph;
              config = (fun () -> cfg); zoo = Some (e.Models.Zoo.model_name, config);
              key = C.artifact_store_key cfg graph })
          Check.Golden.configurations)
      Models.Zoo.all
  in
  let rng = Util.Rng.create seed in
  let gen =
    List.init generated (fun _ ->
        let s = Util.Rng.int_in rng 1 1_000_000 in
        let graph = Check.Gen.generate s in
        let config () = { (Check.Gen.random_config s) with C.jobs = 1 } in
        { name = Printf.sprintf "gen/%d" s; graph; config; zoo = None;
          key = C.artifact_store_key (config ()) graph })
  in
  zoo @ gen

type outcome = {
  cold : string option;  (** artifact digests; [None] on a resource error *)
  written : string option;
  warm : string option;
  solver : C.solver_stats option;  (** of the cold compile *)
}

let digest = Option.map C.artifact_digest

(** One pass over every case into a fresh store; in a traced pass the cold
    compiles carry a metrics registry and the store calls are probed.
    Only digests are kept, so passes hold no artifacts. *)
let pass ctx cases n =
  let dir = Filename.concat ctx.H.out_dir (Printf.sprintf "store-pass-%d" n) in
  H.rm_rf dir;
  let probe = ctx.H.recording in
  let cold =
    H.host_timed_chunks ~chunk
      (fun c ->
        let metrics = if probe then Some (Metrics.create ()) else None in
        let a, dt = L.compile ctx ?metrics ~kind:"cold" ~what:c.name (c.config ()) c.graph in
        Option.iter (L.add_phases ctx) metrics;
        ((digest a, Option.map (fun a -> a.C.solver) a), dt))
      cases
  in
  List.iter (fun ((_, dt), t) -> H.add ctx "compile_s" (dt /. t.H.host.H.compiler)) cold;
  let cold = List.map (fun ((d, _), _) -> d) cold in
  let store = Store.open_root dir in
  let written =
    List.map
      (fun c ->
        digest (fst (L.compile ctx ~store ~kind:"store write" ~what:c.name (c.config ()) c.graph)))
      cases
  in
  (* The writes leave garbage: the warm reads start from a compacted heap,
     as the cold compiles do. *)
  Gc.compact ();
  let warm =
    H.host_timed_chunks ~chunk
      (fun c ->
        let cfg = c.config () in
        let a, dt = L.compile ctx ~store ~kind:"warm" ~what:c.name cfg c.graph in
        (match a with
        | Some a when probe -> L.store_probe ctx dir cfg c.graph a ~warm_s:dt
        | _ -> ());
        (digest a, dt))
      cases
  in
  List.iter (fun ((_, dt), t) -> H.add ctx "warm_compile_s" (dt /. t.H.host.H.compiler)) warm;
  let warm = List.map (fun ((d, _), _) -> d) warm in
  if probe then
    L.set_store ctx ~hits:(Store.hits store) ~misses:(Store.misses store)
      ~rejects:(Store.rejects store);
  H.rm_rf dir;
  List.map2
    (fun c ((cold, solver), (written, warm)) -> (c, { cold; written; warm; solver }))
    cases (List.combine cold (List.combine written warm))

(** Checks of one pass: store-path digests against the cold one, and cold
    digests and solver totals against the reference compile. A store-path
    mismatch on a case whose store key another case with a different cold
    artifact also has is the recorded store-key collision. *)
let check_pass ctx ~reference results =
  (* [reference]: (cold digest, solver totals) per case. *)
  let colliding c d =
    List.exists
      (fun (c', o') -> c'.key = c.key && c'.name <> c.name && o'.cold <> d)
      results
  in
  List.iter2
    (fun (c, o) r ->
      let d = o.cold in
      H.check ctx
        ((d, o.solver) = r)
        (c.name ^ ": cold artifact or solver totals differ from the reference compile");
      List.iter
        (fun (how, a) ->
          let ok = a = d in
          if (not ok) && colliding c d then
            H.known_defect ctx
              (Printf.sprintf
                 "%s: %s store compile served another config's artifact (store key collision)"
                 c.name how)
          else
            H.check ctx ok (Printf.sprintf "%s: %s artifact digest differs from cold" c.name how))
        [ ("write", o.written); ("warm", o.warm) ])
    results reference

let run ctx =
  (* Set up repeatedly; only the first set of cases is kept. *)
  let first = ref None in
  let setups =
    H.repeat ~min:5 ~seconds:(0.1 *. ctx.H.seconds) (fun () ->
        let cases, t = H.host_timed (fun () -> build_cases ctx.H.seed) in
        if !first = None then first := Some cases;
        H.relative Compiler t)
  in
  let cases = Option.get !first in
  H.set ctx "setup_s" (H.at_reference Compiler (H.median (List.map fst setups)));
  (* Each case compiled once, untimed, as the reference for the passes.
     Only the zoo artifacts are kept: they are checked against the
     committed goldens, and their golden-input runs are the workload's
     executed requests. *)
  let reference =
    List.map
      (fun c ->
        let a, _ = L.compile ctx ~kind:"reference" ~what:c.name (c.config ()) c.graph in
        (c, a, (digest a, Option.map (fun a -> a.C.solver) a)))
      cases
  in
  let reference_digests = List.map (fun (_, _, d) -> d) reference in
  L.set_dory_solver ctx (List.filter_map (fun (_, _, (_, s)) -> s) reference);
  let zoo =
    List.filter_map
      (fun (c, a, _) ->
        match (c.zoo, a) with
        | Some z, Some a -> Some (c, z, a)
        | Some _, None ->
            H.check ctx false (c.name ^ ": zoo case did not compile");
            None
        | None, _ -> None)
      reference
  in
  let runs =
    List.filter_map (fun (c, (model, config), a) -> L.golden ctx ~model ~config a c.graph) zoo
  in
  let totals = List.map (fun rep -> Sim.Counters.fields rep.Sim.Machine.totals) runs in
  let golden_round () =
    List.map
      (fun (c, _, a) ->
        let inputs = Models.Zoo.random_input ~seed:Check.Golden.input_seed c.graph in
        Sim.Counters.fields (snd (C.run a ~inputs)).Sim.Machine.totals)
      zoo
  in
  (* The timed region: compile passes, each followed by one timed round
     of the golden runs, so both sample the whole run. *)
  let n = ref 0 and rounds = ref [] in
  let passes =
    H.untraced ctx (fun () ->
        H.repeat ~min:2 ~seconds:(if ctx.H.traced then 2. else ctx.H.seconds) (fun () ->
            incr n;
            let p = H.host_timed (fun () -> pass ctx cases !n) in
            Gc.compact ();
            rounds := H.host_timed golden_round :: !rounds;
            p))
    |> List.map fst
  in
  List.iter (fun (r, _) -> check_pass ctx ~reference:reference_digests r) passes;
  List.iter
    (fun (t, _) -> H.check ctx (t = totals) "zoo golden rerun: counters differ from the first run")
    !rounds;
  let q k p = H.ms (H.at_reference Compiler (H.percentile p (H.samples ctx k))) in
  H.set ctx "compile_p50_ms" (q "compile_s" 50.);
  H.set ctx "compile_p99_ms" (q "compile_s" 99.);
  H.set ctx "warm_compile_p50_ms" (q "warm_compile_s" 50.);
  H.set ctx "warm_compile_p99_ms" (q "warm_compile_s" 99.);
  Printf.printf "compile-mix: %d cases, %d passes, %d cold compiles\n" (List.length cases)
    (List.length passes) (List.length (H.samples ctx "compile_s"));
  if ctx.H.traced then begin
    Gc.compact ();
    let traced, t = H.host_timed (fun () -> pass ctx cases 0) in
    check_pass ctx ~reference:reference_digests traced;
    H.set ctx "trace.overhead_ms"
      (H.ms
         (H.at_reference Compiler
            (H.relative Compiler t
            -. H.relative Compiler (snd (List.nth passes (List.length passes - 1))))));
    L.set_phases ctx ~compiles:(List.length cases)
  end;
  let cycles = List.map (fun rep -> float (C.full_cycles rep)) runs in
  H.set ctx "req_per_s"
    (float (List.length zoo)
    /. H.at_reference Kernel (H.median (List.map (fun (_, t) -> H.relative Kernel t) !rounds)));
  H.set ctx "sim_cycles_per_req" (H.mean cycles);
  H.set ctx "sim_sojourn_p99_cycles" (H.percentile 99. cycles);
  H.set ctx "zoo_cycles_geomean" (H.geomean cycles);
  H.set ctx "zoo_binary_kb_geomean"
    (H.geomean (List.map (fun (_, _, a) -> Codegen.Size.total_kb a.C.size) zoo));
  L.set_cycles ctx
    (L.total_counters (List.map (fun rep -> rep.Sim.Machine.totals) runs))
    ~requests:(List.length runs);
  (* Every generated case against the reference interpreter. *)
  List.iter
    (fun c ->
      if c.zoo = None then begin
        let v =
          H.span ctx ~layer:"Check" "run_case" (fun () ->
              Check.run_case ~input_seed:ctx.H.seed (c.config ()) c.graph)
        in
        H.check ctx (not (Check.is_failure v)) (c.name ^ ": " ^ Check.describe v)
      end)
    cases

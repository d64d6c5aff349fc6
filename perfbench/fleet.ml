(* Set-up of the serve workloads: the zoo models a fleet hosts, compiled
   on the full DIANA platform with the paper's Mixed policy. *)

module C = Htvm.Compile
module H = Harness
module L = Layers

type model = {
  name : string;
  graph : Ir.Graph.t;
  artifact : C.artifact;  (** the cold no-store compile the fleet serves *)
  golden_cycles : int;  (** full cycles on the golden input *)
}

(** Set the fleet up at least [rounds] times, and again while [seconds]
    last. One round builds each model's graph, compiles it cold with no
    store (the artifact that is served), compiles it into a fresh store,
    and compiles it warm from that store, as a second instance booting
    from the store would. [setup_s] times a round; the per-model medians
    of the compile samples feed [compile_*] and [warm_compile_*]. All of
    them are rescaled by the host probes around the round.
    Outside the timed round, the store-path digests are checked against
    the cold one and, in a traced run, the store calls are probed. *)
let setup ctx ~rounds ~seconds names =
  let cfg = L.config Arch.Diana.platform in
  let round r =
    let dir = Filename.concat ctx.H.out_dir (Printf.sprintf "store-setup-%d" r) in
    H.rm_rf dir;
    let (store, built), t =
      H.host_timed (fun () ->
          let store = Store.open_root dir in
          ( store,
            List.map
              (fun name ->
                let graph = (Models.Zoo.find name).Models.Zoo.build Models.Policy.Mixed in
                let reg = if ctx.H.traced then Some (Metrics.create ()) else None in
                let cold, cold_s = L.compile ctx ?metrics:reg ~kind:"cold" ~what:name cfg graph in
                let written, _ = L.compile ctx ~store ~kind:"store write" ~what:name cfg graph in
                let warm, warm_s = L.compile ctx ~store ~kind:"warm" ~what:name cfg graph in
                (name, graph, reg, cold, cold_s, written, warm, warm_s))
              names ))
    in
    H.add ctx "setup_s" (H.relative Compiler t);
    let served =
      List.filter_map
        (fun (name, graph, reg, cold, cold_s, written, warm, warm_s) ->
          H.add ctx ("compile_s " ^ name) (cold_s /. t.H.host.H.compiler);
          H.add ctx ("warm_compile_s " ^ name) (warm_s /. t.H.host.H.compiler);
          Option.iter (L.add_phases ctx) reg;
          match (cold, written, warm) with
          | Some c, Some w, Some h ->
              let d = C.artifact_digest c in
              H.check ctx
                (C.artifact_digest w = d && C.artifact_digest h = d)
                (name ^ ": store-path artifact digest differs from the cold one");
              if ctx.H.traced then L.store_probe ctx dir cfg graph h ~warm_s;
              Some (name, graph, c)
          | _ ->
              H.check ctx false (name ^ ": set-up compile failed");
              None)
        built
    in
    let counts = (Store.hits store, Store.misses store, Store.rejects store) in
    H.rm_rf dir;
    (served, counts)
  in
  (* Only the last round's artifacts are kept. *)
  let n = ref 0 and last = ref ([], (0, 0, 0)) in
  ignore
    (H.repeat ~min:rounds ~seconds (fun () ->
         incr n;
         last := round !n));
  let served, (hits, misses, rejects) = !last in
  if ctx.H.traced then begin
    L.set_store ctx ~hits ~misses ~rejects;
    L.set_phases ctx ~compiles:(!n * List.length names);
    L.set_dory_solver ctx (List.map (fun (_, _, a) -> a.C.solver) served)
  end;
  let models =
    List.filter_map
      (fun (name, graph, artifact) ->
        match L.golden ctx ~model:name ~config:"both" artifact graph with
        | Some rep ->
            Some { name; graph; artifact; golden_cycles = C.full_cycles rep }
        | None -> None)
      served
  in
  if List.length models <> List.length names then failwith "fleet set-up failed";
  H.set ctx "setup_s" (H.at_reference Compiler (H.median (H.samples ctx "setup_s")));
  (* A round compiles each model once, so a run has too few samples for a
     sample p99: the percentiles are taken over the per-model medians. *)
  let per_model k p =
    H.ms
      (H.at_reference Compiler
         (H.percentile p (List.map (fun name -> H.median (H.samples ctx (k ^ " " ^ name))) names)))
  in
  H.set ctx "compile_p50_ms" (per_model "compile_s" 50.);
  H.set ctx "compile_p99_ms" (per_model "compile_s" 99.);
  H.set ctx "warm_compile_p50_ms" (per_model "warm_compile_s" 50.);
  H.set ctx "warm_compile_p99_ms" (per_model "warm_compile_s" 99.);
  H.set ctx "zoo_cycles_geomean"
    (H.geomean (List.map (fun m -> float m.golden_cycles) models));
  H.set ctx "zoo_binary_kb_geomean"
    (H.geomean (List.map (fun m -> Codegen.Size.total_kb m.artifact.C.size) models));
  models

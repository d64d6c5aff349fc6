(* The repo benchmark. One process runs one named workload:

     main.exe --workload serve-mt|serve-faults|compile-mix --seed N
              --seconds S --trace 0|1

   and prints, as its last stdout line, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics in an
   untraced run, the per-layer metrics in a traced one. Every input is
   derived from the seed; the program runs on one host domain. *)

module H = Harness

let end_to_end =
  [
    ("setup_s", "s");
    ("req_per_s", "1/s");
    ("compile_p50_ms", "ms");
    ("compile_p99_ms", "ms");
    ("warm_compile_p50_ms", "ms");
    ("warm_compile_p99_ms", "ms");
    ("sim_cycles_per_req", "cycles");
    ("sim_sojourn_p99_cycles", "cycles");
    ("zoo_cycles_geomean", "cycles");
    ("zoo_binary_kb_geomean", "kB");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("sim.plan.analog_ms_per_req", "ms");
    ("sim.plan.digital_ms_per_req", "ms");
    ("sim.plan.analog_mmac_per_s", "MMAC/s");
    ("sim.cpu_ms_per_req", "ms");
    ("sim.plan.build_ms", "ms");
    ("sim.plan.scratch_kwords", "kword");
    ("sim.oracle_ms_per_req", "ms");
    ("fault.detected", "count");
    ("fault.silent", "count");
    ("fault.retries", "count");
    ("fault.retry_cycles", "cycles");
    ("serve.ms_per_req", "ms");
    ("serve.engine_overhead_ms_per_req", "ms");
    ("serve.batches", "count");
    ("serve.swaps", "count");
    ("serve.shed", "count");
    ("health.readmissions", "count");
    ("health.probe_cycles", "cycles");
  ]
  @ List.map (fun p -> ("compile.phase." ^ p ^ "_ms", "ms")) Layers.phases
  @ [
      ("dory.tiling.explored", "count");
      ("dory.tiling.pruned", "count");
      ("dory.tiling.feasible_ratio", "ratio");
      ("store.key_ms", "ms");
      ("store.find_ms", "ms");
      ("store.decode_ms", "ms");
      ("store.payload_kb", "KiB");
      ("store.hits", "count");
      ("store.misses", "count");
      ("store.rejects", "count");
      ("store.hit_ratio", "ratio");
      ("store.key_collisions", "count");
    ]
  @ List.map
      (fun k -> ("sim.cycles." ^ k, "cycles"))
      [ "accel"; "wload"; "dma"; "host"; "cpu"; "stall" ]
  @ [
      ("sim_slo_miss_ratio", "ratio");
      ("error_rate", "ratio");
      ("trace.overhead_ms", "ms");
    ]

let workloads =
  [
    ("serve-mt", Serve_mt.run);
    ("serve-faults", Serve_faults.run);
    ("compile-mix", Compile_mix.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve-mt | serve-faults | compile-mix");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists Layers.golden_dir) then begin
    prerr_endline "run from the repository root (test/golden not found)";
    exit 2
  end;
  let out_dir = ".bench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let ctx =
    H.create ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~out_dir
  in
  Printf.printf "host: nproc=%d ocaml=%s workload=%s seed=%d seconds=%g trace=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !workload !seed !seconds !trace;
  (match run ctx with
  | () -> ()
  | exception e -> H.check ctx false ("workload raised " ^ Printexc.to_string e));
  H.set ctx "peak_rss_mb" (H.peak_rss_mb ());
  H.set ctx "store.key_collisions" (float ctx.H.known);
  H.set ctx "error_rate"
    (H.ratio (float (ctx.H.failed + ctx.H.known)) (float ctx.H.attempted));
  if ctx.H.traced then begin
    Printf.printf "%-12s %-32s %6s %10s %10s\n" "layer" "span" "calls" "total_ms" "self_ms";
    List.iter
      (fun (layer, name, calls, total, self) ->
        Printf.printf "%-12s %-32s %6d %10.3f %10.3f\n" layer name calls (H.ms total)
          (H.ms self))
      (H.self_times ctx);
    Printf.printf "trace: %s\n" (H.write_trace ctx);
    List.iter (fun (n, u) -> Printf.printf "%-36s %14.4f %s\n" n (H.get ctx n) u) per_layer
  end
  else List.iter (fun (n, u) -> Printf.printf "%-36s %14.4f %s\n" n (H.get ctx n) u) end_to_end;
  Printf.printf "attempted=%d failed=%d known-defects=%d\n" ctx.H.attempted ctx.H.failed
    ctx.H.known;
  print_endline
    (Trace.Json.to_string
       (H.result_json ctx (if ctx.H.traced then per_layer else end_to_end)))

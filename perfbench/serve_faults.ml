(* serve-faults: single-model serving through [Serve.run] under a seeded,
   recoverable fault plan.

   resnet8 on [both], four seeded Poisson streams, the default Health
   lifecycle and per stream a [dma_in@p=...:flip] plan that fires on a
   good share of requests; a timed round is one call per stream. Any
   fault session sends every request down the slow Sim.Machine oracle
   path with Fault.Session draws; the Sim.Plan kernels do not run. *)

module C = Htvm.Compile
module H = Harness
module L = Layers

let streams = 4
let requests = 32
let fault_rate = 0.01

type served = {
  service : int;
  digest : string;
  detected : int;
  silent : int;
  retries : int;
  sojourn : int;
}

let run ctx =
  let m = List.hd (Fleet.setup ctx ~rounds:5 ~seconds:(0.15 *. ctx.H.seconds) [ "resnet8" ]) in
  let service = m.Fleet.golden_cycles in
  (* Seeded streams, as on serve-mt: short timed calls, several per stream. *)
  let rng = Util.Rng.create ctx.H.seed in
  let configs =
    List.init streams (fun _ ->
        let seed = Util.Rng.int_in rng 1 1_000_000 in
        let plan =
          match
            Fault.Plan.of_string (Printf.sprintf "seed=%d,dma_in@p=%g:flip" seed fault_rate)
          with
          | Ok p -> p
          | Error e -> failwith e
        in
        {
          Serve.default with
          Serve.workers = 4;
          max_batch = 4;
          queue_depth = 8;
          requests;
          seed;
          (* Offered load near the capacity of four instances. *)
          arrival = Serve.Poisson { mean_gap = service / 3 };
          window = 2 * service;
          plan;
          health = Some Health.default;
          slo_sojourn = Some (4 * service);
          jobs = 1;
        })
  in
  let call cfg () =
    H.span ctx ~layer:"Serve" "run" (fun () -> Serve.run cfg m.Fleet.artifact ~graph:m.Fleet.graph)
  in
  let calls =
    H.untraced ctx (fun () ->
        H.host_rounds ~min:2
          ~seconds:(if ctx.H.traced then 0. else ctx.H.seconds)
          (List.map call configs))
  in
  let firsts = List.map (fun c -> fst (List.hd c)) calls in
  let counters r =
    Sim.Counters.fields
      (L.total_counters (List.map (fun i -> i.Serve.i_totals) r.Serve.r_instances))
  in
  List.iteri
    (fun s c ->
      let first = fst (List.hd c) in
      let tally = Digest.string (Serve.tally first) in
      List.iteri
        (fun i (r, _) ->
          H.check ctx
            (Digest.string (Serve.tally r) = tally && counters r = counters first)
            (Printf.sprintf "serve-faults stream %d call %d: tally or counters differ from the first"
               s (i + 1));
          ctx.H.attempted <- ctx.H.attempted + List.length r.Serve.r_outcomes)
        c)
    calls;
  let wall = H.round_at_reference calls in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 firsts in
  (* Requests shed by health-aware admission executed before the shed. *)
  let health_shed r = match r.Serve.r_health with Some h -> h.Serve.h_shed | None -> 0 in
  let n_exec = sum (fun r -> r.Serve.r_served + r.Serve.r_aborted + health_shed r) in
  let served =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (q, o) ->
            match o with
            | Serve.Served
                { o_service; o_digest; o_detected; o_silent; o_retries; o_finish; _ } ->
                Some (q, { service = o_service; digest = o_digest; detected = o_detected;
                           silent = o_silent; retries = o_retries;
                           sojourn = o_finish - q.Serve.r_arrival })
            | _ -> None)
          r.Serve.r_outcomes)
      firsts
  in
  (* A seeded sample of served outputs without silent faults against the
     reference interpreter (detected faults are retried, never kept). *)
  let clean = List.filter (fun (_, s) -> s.silent = 0) served in
  let rng = Util.Rng.create (ctx.H.seed + 17) in
  for _ = 1 to 4 do
    let r, s = List.nth clean (Util.Rng.int rng (List.length clean)) in
    L.eval_check ctx ~req:r.Serve.r_id m.Fleet.graph ~input_seed:r.Serve.r_input_seed
      s.digest
  done;
  let total f = List.fold_left (fun acc (_, s) -> acc + f s) 0 served in
  let totals =
    L.total_counters
      (List.concat_map (fun r -> List.map (fun i -> i.Serve.i_totals) r.Serve.r_instances) firsts)
  in
  H.set ctx "req_per_s" (float n_exec /. wall);
  H.set ctx "sim_cycles_per_req" (H.mean (List.map (fun (_, s) -> float s.service) served));
  H.set ctx "sim_sojourn_p99_cycles"
    (float (Serve.percentiles_of (List.map (fun (_, s) -> s.sojourn) served)).Serve.p99);
  let violations =
    sum (fun r -> match r.Serve.r_slo with Some s -> s.Serve.s_observed_violations | None -> 0)
  in
  H.set ctx "sim_slo_miss_ratio"
    (float (sum (fun r -> r.Serve.r_rejected + r.Serve.r_aborted) + violations)
     /. float (streams * requests));
  H.set ctx "fault.detected" (float (total (fun s -> s.detected)));
  H.set ctx "fault.silent" (float (total (fun s -> s.silent)));
  H.set ctx "fault.retries" (float (total (fun s -> s.retries)));
  H.set ctx "fault.retry_cycles" (float totals.Sim.Counters.retry_cycles);
  let health f = sum (fun r -> match r.Serve.r_health with Some h -> f h | None -> 0) in
  H.set ctx "health.readmissions" (float (health (fun h -> h.Serve.h_pred_readmissions)));
  H.set ctx "health.probe_cycles" (float (health (fun h -> h.Serve.h_pred_probe_cycles)));
  H.set ctx "serve.ms_per_req" (H.ms (wall /. float n_exec));
  H.set ctx "serve.batches"
    (float (sum (fun r -> List.fold_left (fun acc i -> acc + i.Serve.i_batches) 0 r.Serve.r_instances)));
  H.set ctx "serve.shed" (float (sum (fun r -> r.Serve.r_rejected)));
  L.set_cycles ctx totals ~requests:(List.length served);
  Printf.printf
    "serve-faults: %d offered, %d executed, %d faults per round of %d streams; %d calls; round \
     %.3f s (%.3f s at the kernel probe's reference speed; fastest kernel probe %.2f ms)\n"
    (streams * requests) n_exec
    (total (fun s -> s.detected + s.silent))
    streams
    (List.fold_left (fun acc c -> acc + List.length c) 0 calls)
    (H.round_wall calls) wall (H.ms !H.fastest_kernel_probe);
  if ctx.H.traced then begin
    let traced_calls = H.host_rounds ~min:1 ~seconds:0. (List.map call configs) in
    H.set ctx "trace.overhead_ms"
      (H.ms (H.round_at_reference traced_calls -. H.round_at_reference calls));
    (* The oracle under a session of each stream's plan, on a sample. *)
    let oracle =
      List.concat (List.map2 (fun cfg r -> List.map (fun (q, _) -> (cfg, q)) r.Serve.r_outcomes) configs firsts)
      |> List.filteri (fun i _ -> i < 6)
      |> List.map (fun (cfg, r) ->
             let plan = cfg.Serve.plan in
             let inputs = Models.Zoo.random_input ~seed:r.Serve.r_input_seed m.Fleet.graph in
             let faults =
               Fault.Session.create
                 { plan with Fault.Plan.seed = plan.Fault.Plan.seed + r.Serve.r_id }
             in
             snd
               (H.timed (fun () ->
                    H.span ctx ~layer:"Sim.Machine" ~req:r.Serve.r_id "run (oracle)" (fun () ->
                        match C.run ~faults m.Fleet.artifact ~inputs with
                        | _ -> H.attempt ctx
                        | exception Fault.Session.Unrecovered _ -> H.attempt ctx))))
    in
    H.set ctx "sim.oracle_ms_per_req" (H.ms (H.mean oracle))
  end

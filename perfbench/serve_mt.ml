(* serve-mt: fault-free multi-tenant serving through [Serve.mt_run].

   The four zoo models on [both] share a 4-instance Swap fleet, one class
   per model; resnet8 and ds_cnn carry sojourn SLOs, the other two are
   batch classes. Eight seeded Poisson streams run near fleet capacity so
   admission sheds some traffic but not most; a timed round is one call
   per stream. Host time goes to the Sim.Plan
   kernels; the oracle, Fault and the compiler do not run. *)

module C = Htvm.Compile
module H = Harness
module L = Layers

let streams = 8
let requests = 32

(** A seeded Poisson arrival stream of [requests] requests, replayed
    through [Serve.Mt_replay]. Classes are dealt in shuffled rounds of one
    request per class: every seed offers the same class mix, and the seed
    moves only arrival times, class order and payloads. With a weighted
    draw per request the mix, and with it the host time of a run, varies
    from seed to seed by more than the bounds allow. *)
let arrivals ~seed ~mean_gap classes =
  let rng = Util.Rng.create seed in
  let names = Array.of_list (List.map (fun k -> k.Serve.k_name) classes) in
  let n = Array.length names in
  let clock = ref 0 in
  List.init requests (fun i ->
      if i mod n = 0 then
        for j = n - 1 downto 1 do
          let r = Util.Rng.int rng (j + 1) in
          let t = names.(j) in
          names.(j) <- names.(r);
          names.(r) <- t
        done;
      let u = float (Util.Rng.int rng 1_000_000 + 1) /. 1e6 in
      clock := !clock + int_of_float (-.float mean_gap *. log u);
      {
        Serve.t_cycle = !clock;
        t_class = names.(i mod n);
        t_seed = Util.Rng.int_in rng 1 1_000_000;
        t_line = i + 1;
      })

let run ctx =
  let models =
    Fleet.setup ctx ~rounds:5 ~seconds:(0.15 *. ctx.H.seconds)
      [ "ds_cnn"; "mobilenet_v1_025"; "resnet8"; "toyadmos_dae" ]
  in
  let find name = List.find (fun m -> m.Fleet.name = name) models in
  let cycles name = (find name).Fleet.golden_cycles in
  let mean_service =
    List.fold_left (fun acc m -> acc + m.Fleet.golden_cycles) 0 models / List.length models
  in
  let classes =
    [
      ("kws", "ds_cnn", Some (4 * cycles "ds_cnn"));
      ("vww", "mobilenet_v1_025", None);
      ("ic", "resnet8", Some (4 * cycles "resnet8"));
      ("ad", "toyadmos_dae", None);
    ]
    |> List.map (fun (k_name, k_model, k_slo) ->
           { Serve.k_name; k_model; k_slo; k_weight = 1 })
  in
  let registry =
    List.map
      (fun m ->
        { Serve.m_name = m.Fleet.name; m_artifact = m.Fleet.artifact; m_graph = m.Fleet.graph })
      models
  in
  (* Seeded streams: a timed call is short enough that a run holds several
     per stream, and the streams average out one draw's shed set. *)
  let rng = Util.Rng.create ctx.H.seed in
  let configs =
    List.init streams (fun _ ->
        let seed = Util.Rng.int_in rng 1 1_000_000 in
        {
          Serve.mt_default with
          Serve.mt_workers = 4;
          mt_max_batch = 4;
          mt_queue_depth = 8;
          mt_seed = seed;
          (* Offered load near what four instances serve. *)
          mt_arrival = Serve.Mt_replay (arrivals ~seed ~mean_gap:(mean_service / 4) classes);
          mt_window = 2 * mean_service;
          mt_placement = Serve.Swap;
          mt_jobs = 1;
        })
  in
  let call cfg () =
    H.span ctx ~layer:"Serve" "mt_run" (fun () ->
        match Serve.mt_run cfg ~models:registry ~classes with
        | Ok r -> r
        | Error e -> failwith (Serve.mt_error_to_string e))
  in
  let calls =
    H.untraced ctx (fun () ->
        H.host_rounds ~min:2
          ~seconds:(if ctx.H.traced then 0. else ctx.H.seconds)
          (List.map call configs))
  in
  let firsts = List.map (fun c -> fst (List.hd c)) calls in
  List.iteri
    (fun s c ->
      let tally = Digest.string (Serve.mt_tally (fst (List.hd c))) in
      List.iteri
        (fun i (r, _) ->
          H.check ctx
            (Digest.string (Serve.mt_tally r) = tally)
            (Printf.sprintf "serve-mt stream %d call %d: mt_tally differs from the first" s
               (i + 1));
          ctx.H.attempted <- ctx.H.attempted + List.length r.Serve.mt_outcomes)
        c)
    calls;
  let wall = H.round_at_reference calls in
  let outcomes = List.concat_map (fun r -> r.Serve.mt_outcomes) firsts in
  let executed =
    List.filter
      (fun (_, o) -> match o with Serve.Mt_served _ | Serve.Mt_shed_slo _ -> true | _ -> false)
      outcomes
  in
  let n_exec = List.length executed in
  let served =
    List.filter_map
      (fun (q, o) ->
        match o with
        | Serve.Mt_served { mo_service; mo_digest; mo_finish; _ } ->
            Some (q, (mo_service, mo_digest, mo_finish - q.Serve.q_arrival))
        | _ -> None)
      outcomes
  in
  let class_model q = (List.nth classes q.Serve.q_class).Serve.k_model in
  (* A seeded sample of served outputs against the reference interpreter. *)
  let rng = Util.Rng.create (ctx.H.seed + 17) in
  for _ = 1 to 4 do
    let q, (_, digest, _) = List.nth served (Util.Rng.int rng (List.length served)) in
    L.eval_check ctx ~req:q.Serve.q_id (find (class_model q)).Fleet.graph
      ~input_seed:q.Serve.q_input_seed digest
  done;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 firsts in
  H.set ctx "req_per_s" (float n_exec /. wall);
  H.set ctx "sim_cycles_per_req"
    (H.mean (List.map (fun (_, (service, _, _)) -> float service) served));
  H.set ctx "sim_sojourn_p99_cycles"
    (float (Serve.percentiles_of (List.map (fun (_, (_, _, s)) -> s) served)).Serve.p99);
  let violations =
    sum (fun r ->
        List.fold_left (fun acc c -> acc + c.Serve.cs_observed_violations) 0 r.Serve.mt_class_stats)
  in
  let shed = sum (fun r -> r.Serve.mt_shed_queue + r.Serve.mt_shed_slo) in
  H.set ctx "sim_slo_miss_ratio" (float (shed + violations) /. float (List.length outcomes));
  H.set ctx "serve.ms_per_req" (H.ms (wall /. float n_exec));
  H.set ctx "serve.batches"
    (float
       (sum (fun r -> List.fold_left (fun acc i -> acc + i.Serve.mi_batches) 0 r.Serve.mt_instances)));
  H.set ctx "serve.swaps" (float (sum (fun r -> r.Serve.mt_swaps)));
  H.set ctx "serve.shed" (float shed);
  Printf.printf
    "serve-mt: %d offered, %d executed, %d shed per round of %d streams; %d calls; round %.3f s \
     (%.3f s at the kernel probe's reference speed; fastest kernel probe %.2f ms)\n"
    (List.length outcomes) n_exec shed streams
    (List.fold_left (fun acc c -> acc + List.length c) 0 calls)
    (H.round_wall calls) wall (H.ms !H.fastest_kernel_probe);
  if ctx.H.traced then begin
    let requests =
      List.map
        (fun (q, _) ->
          let m = find (class_model q) in
          (q.Serve.q_id, m.Fleet.artifact,
           Models.Zoo.random_input ~seed:q.Serve.q_input_seed m.Fleet.graph))
        executed
    in
    (* The same requests directly through Htvm.Compile.run, back to back,
       and one traced call per stream, each at the reference probe's speed. *)
    let direct_calls =
      H.untraced ctx (fun () ->
          H.host_rounds ~min:2 ~seconds:0.
            [
              (fun () ->
                List.map
                  (fun (_, a, inputs) -> (snd (C.run a ~inputs)).Sim.Machine.totals)
                  requests);
            ])
    in
    let traced_calls = H.host_rounds ~min:1 ~seconds:0. (List.map call configs) in
    let direct = fst (List.hd (List.hd direct_calls)) in
    let untraced = H.round_at_reference calls in
    H.set ctx "serve.engine_overhead_ms_per_req"
      (H.ms ((untraced -. H.round_at_reference direct_calls) /. float n_exec));
    H.set ctx "trace.overhead_ms" (H.ms (H.round_at_reference traced_calls -. untraced));
    L.set_cycles ctx (L.total_counters direct) ~requests:n_exec;
    (* Then each request step by step, for the kernel attribution; its
       counters must repeat the direct run's. *)
    List.iter2
      (fun (req, a, inputs) totals ->
        match L.attribute ctx a ~inputs ~req with
        | Some rep ->
            H.check ctx
              (Sim.Counters.fields rep.Sim.Machine.totals = Sim.Counters.fields totals)
              (Printf.sprintf "request %d: counters differ between two runs" req)
        | None -> ())
      requests direct;
    L.set_plan_kernels ctx
  end

(* Pinned serving outputs: for fixed single-model and multi-tenant
   configs, the tally, the summary, the JSON report and the sorted lines
   of the Prometheus dump must match test/golden/*.serve byte for byte.
   The sort makes the pin independent of metric registration order; the
   metric set and every value stay pinned. After an intentional change,
   re-record with
     HTVM_BLESS_SERVE=$PWD/test/golden dune test --force *)

let hcfg = Test_health.serve_hcfg
let flip_plan = Test_serve.flip_plan
let base = { Serve.default with Serve.requests = 12; max_batch = 3 }
let poisson = Serve.Poisson { mean_gap = 0 }

let single =
  [
    ("closed", { base with Serve.workers = 2 });
    ( "poisson-slo",
      {
        base with
        Serve.workers = 2;
        arrival = poisson;
        queue_depth = 2;
        slo_sojourn = Some 8_000;
      } );
    ( "poisson-flip-health",
      {
        base with
        Serve.workers = 2;
        requests = 16;
        arrival = poisson;
        plan = flip_plan;
        retry_budget = 2;
        queue_depth = 2;
        health = Some hcfg;
        degraded_instances = [ 0 ];
      } );
    ("mix-memoize", { base with Serve.input_mix = 3; memoize = true });
    ( "degrade-after",
      {
        base with
        Serve.workers = 2;
        arrival = poisson;
        plan = flip_plan;
        retry_budget = 5;
        degrade_after = Some 1;
      } );
  ]

let mt_base =
  { Serve.mt_default with Serve.mt_requests = 12; mt_max_batch = 3; mt_workers = 2 }

let mt_poisson = Serve.Mt_poisson { mean_gap = 0 }

let golden_trace =
  lazy
    (match Serve.load_arrival_trace "golden/mtserve.trace" with
    | Ok entries -> entries
    | Error e -> failwith (Serve.mt_error_to_string e))

let multi =
  let slo_classes =
    [
      { Serve.k_name = "interactive"; k_model = "alpha"; k_slo = Some 11_000; k_weight = 2 };
      { Serve.k_name = "batch"; k_model = "beta"; k_slo = Some 13_000; k_weight = 1 };
    ]
  in
  [
    ( "mt-pinned",
      (fun () -> { mt_base with Serve.mt_placement = Serve.Pinned; mt_arrival = mt_poisson }),
      Test_mtserve.classes );
    ( "mt-swap-autotune-slo",
      (fun () ->
        { mt_base with Serve.mt_max_batch = 0; mt_requests = 16; mt_arrival = mt_poisson }),
      slo_classes );
    ( "mt-replay",
      (fun () ->
        {
          mt_base with
          Serve.mt_arrival = Serve.Mt_replay (Lazy.force golden_trace);
          mt_queue_depth = 2;
        }),
      Test_mtserve.classes );
    ( "mt-health",
      (fun () ->
        {
          mt_base with
          Serve.mt_arrival = mt_poisson;
          mt_placement = Serve.Pinned;
          mt_health = Some { hcfg with Health.probation_window = 40_000; backoff_cap = 240_000 };
          mt_degraded_instances = [ 1 ];
        }),
      Test_mtserve.classes );
  ]

let render ~tally ~summary ~json ~metrics =
  let prom =
    String.split_on_char '\n' (Metrics.to_prometheus metrics)
    |> List.filter (( <> ) "")
    |> List.sort compare
  in
  String.concat ""
    [
      "== tally\n"; tally; "== summary\n"; summary; "== json\n";
      Trace.Json.to_string json; "\n== prometheus (sorted lines)\n";
      String.concat "\n" prom; "\n";
    ]

let check name actual () =
  let file = name ^ ".serve" in
  match Sys.getenv_opt "HTVM_BLESS_SERVE" with
  | Some dir -> Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
        output_string oc actual)
  | None ->
      let expected =
        In_channel.with_open_bin (Filename.concat "golden" file) In_channel.input_all
      in
      if expected <> actual then begin
        let e = String.split_on_char '\n' expected
        and a = String.split_on_char '\n' actual in
        let rec first_diff i = function
          | x :: xs, y :: ys -> if x = y then first_diff (i + 1) (xs, ys) else (i, x, y)
          | x :: _, [] -> (i, x, "<end of output>")
          | [], y :: _ -> (i, "<end of golden>", y)
          | [], [] -> (i, "", "")
        in
        let line, x, y = first_diff 1 (e, a) in
        Alcotest.failf "%s differs at line %d:\n  golden: %s\n  actual: %s" file line x y
      end

let single_case (name, cfg) =
  Alcotest.test_case name `Quick (fun () ->
      let artifact, graph = Lazy.force Test_serve.fixture in
      let r = Serve.run cfg artifact ~graph in
      check name
        (render ~tally:(Serve.tally r) ~summary:(Serve.summary r) ~json:(Serve.to_json r)
           ~metrics:r.Serve.r_metrics)
        ())

let multi_case (name, cfg, classes) =
  Alcotest.test_case name `Quick (fun () ->
      match Serve.mt_run (cfg ()) ~models:(Lazy.force Test_mtserve.fixture) ~classes with
      | Error e -> Alcotest.failf "mt_run failed: %s" (Serve.mt_error_to_string e)
      | Ok r ->
          check name
            (render ~tally:(Serve.mt_tally r) ~summary:(Serve.mt_summary r)
               ~json:(Serve.mt_to_json r) ~metrics:r.Serve.mt_metrics)
            ())

(* [Serve.run] on a fault-free, health-free Poisson stream and
   [Serve.mt_run] replaying that same stream as one class with no
   shedding SLO on a pinned fleet agree request for request: the two
   entry points are one engine where their features overlap. *)
let prop_run_equals_mt_replay =
  let gen =
    QCheck.Gen.(
      let* workers = int_range 1 3 in
      let* max_batch = int_range 1 4 in
      let* queue_depth = int_range 1 4 in
      let* requests = int_range 0 10 in
      let* seed = int_range 0 10_000 in
      let* mean_gap = oneofl [ 0; 1_000; 5_000 ] in
      let* window = oneofl [ 0; 2_000; 10_000 ] in
      let* degraded = oneofl [ []; [ 0 ] ] in
      return (workers, max_batch, queue_depth, requests, seed, mean_gap, window, degraded))
  in
  let print (w, b, qd, n, seed, gap, win, deg) =
    Printf.sprintf "workers=%d batch=%d depth=%d requests=%d seed=%d gap=%d window=%d degraded=%s"
      w b qd n seed gap win
      (String.concat "," (List.map string_of_int deg))
  in
  Helpers.qtest ~count:40 "run = mt_run replay of its own stream"
    (QCheck.make ~print gen)
    (fun (workers, max_batch, queue_depth, requests, seed, mean_gap, window, degraded) ->
      let artifact, graph = Lazy.force Test_serve.fixture in
      let r =
        Serve.run
          {
            Serve.default with
            Serve.workers;
            max_batch;
            queue_depth;
            requests;
            seed;
            arrival = Serve.Poisson { mean_gap };
            window;
            degraded_instances = degraded;
          }
          artifact ~graph
      in
      let entries =
        List.mapi
          (fun i (q, _) ->
            { Serve.t_cycle = q.Serve.r_arrival; t_class = "c"; t_seed = q.Serve.r_input_seed;
              t_line = i + 1 })
          r.Serve.r_outcomes
      in
      let mt =
        Serve.mt_run
          {
            Serve.mt_default with
            Serve.mt_workers = workers;
            mt_max_batch = max_batch;
            mt_queue_depth = queue_depth;
            mt_seed = seed;
            mt_arrival = Serve.Mt_replay entries;
            mt_window = window;
            mt_placement = Serve.Pinned;
            mt_degraded_instances = degraded;
          }
          ~models:[ { Serve.m_name = "main"; m_artifact = artifact; m_graph = graph } ]
          ~classes:[ { Serve.k_name = "c"; k_model = "main"; k_slo = None; k_weight = 1 } ]
      in
      match mt with
      | Error e -> QCheck.Test.fail_report (Serve.mt_error_to_string e)
      | Ok m ->
          m.Serve.mt_resolved_window = r.Serve.r_window
          && List.for_all2
               (fun (q, o) (q', o') ->
                 q.Serve.r_id = q'.Serve.q_id
                 && q.Serve.r_arrival = q'.Serve.q_arrival
                 &&
                 match (o, o') with
                 | Serve.Served s, Serve.Mt_served s' ->
                     s.o_instance = s'.mo_instance && s.o_batch = s'.mo_batch
                     && s.o_start = s'.mo_start && s.o_finish = s'.mo_finish
                     && s.o_service = s'.mo_service && s.o_digest = s'.mo_digest
                     && s.o_pred_sojourn = s'.mo_pred_sojourn
                 | Serve.Rejected { o_window }, Serve.Mt_shed_queue { mo_window } ->
                     o_window = mo_window
                 | _ -> false)
               r.Serve.r_outcomes m.Serve.mt_outcomes)

let suites =
  [
    ( "serve-golden",
      List.map single_case single @ List.map multi_case multi @ [ prop_run_equals_mt_replay ] );
  ]

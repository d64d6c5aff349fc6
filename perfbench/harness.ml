(* Shared machinery of the benchmark: the wall clock, the in-memory span
   recorder for traced runs, correctness accounting and metric output.

   Layers are treated as black boxes: every span wraps one call into a
   layer's public function, made from this directory; nothing in lib/ is
   instrumented. *)

let now = Unix.gettimeofday

type span = {
  sp_id : int;
  sp_parent : int;  (** 0 for a root span *)
  sp_layer : string;  (** the module called, e.g. ["Sim.Plan"] *)
  sp_name : string;
  sp_req : int;  (** request id, -1 when the call serves no request *)
  sp_t0 : float;
  sp_t1 : float;
}

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  mutable recording : bool;  (** spans are recorded (traced runs only) *)
  out_dir : string;  (** traces and store directories, inside the checkout *)
  t_start : float;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable attempted : int;
  mutable failed : int;
  mutable known : int;  (** mismatches explained by a recorded known defect *)
  seen : (string, unit) Hashtbl.t;  (** known-defect messages already printed *)
  metrics : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;  (** newest first *)
}

let create ~workload ~seed ~seconds ~traced ~out_dir =
  {
    workload;
    seed;
    seconds;
    traced;
    recording = traced;
    out_dir;
    t_start = now ();
    spans = [];
    stack = [];
    next_id = 1;
    attempted = 0;
    failed = 0;
    known = 0;
    seen = Hashtbl.create 16;
    metrics = Hashtbl.create 64;
    samples = Hashtbl.create 64;
  }

(* --- spans ------------------------------------------------------------ *)

(** [span ctx ~layer name f] runs [f]; while recording it also records a
    span with its parent (the innermost open span) and request id. *)
let span ctx ~layer ?(req = -1) name f =
  if not ctx.recording then f ()
  else begin
    let id = ctx.next_id in
    ctx.next_id <- id + 1;
    let parent = match ctx.stack with p :: _ -> p | [] -> 0 in
    ctx.stack <- id :: ctx.stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        ctx.stack <- List.tl ctx.stack;
        ctx.spans <-
          { sp_id = id; sp_parent = parent; sp_layer = layer; sp_name = name;
            sp_req = req; sp_t0 = t0; sp_t1 = now () }
          :: ctx.spans)
  end

(** [untraced ctx f] runs [f] with span recording off: the untraced
    baseline a traced run subtracts to get its overhead. *)
let untraced ctx f =
  let r = ctx.recording in
  ctx.recording <- false;
  Fun.protect f ~finally:(fun () -> ctx.recording <- r)

(** [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Self time per span name: duration minus the time covered by child
    spans. Returns [(layer, name, calls, total_s, self_s)] sorted by
    self time, largest first. *)
let self_times ctx =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.sp_t1 -. s.sp_t0 in
      Hashtbl.replace child s.sp_parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt child s.sp_parent)))
    ctx.spans;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.sp_t1 -. s.sp_t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child s.sp_id) in
      let k = (s.sp_layer, s.sp_name) in
      let n, tot, sf = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (n + 1, tot +. d, sf +. self))
    ctx.spans;
  Hashtbl.fold (fun (l, n) (c, t, s) acc -> (l, n, c, t, s) :: acc) tbl []
  |> List.sort (fun (_, _, _, _, a) (_, _, _, _, b) -> compare b a)

(** Write the spans as a Chrome trace through lib/trace's exporter: one
    track per layer, microseconds since the run started, with span id,
    parent and request id in the args. Returns the file written. *)
let write_trace ctx =
  let tr = Trace.create () in
  let us t = int_of_float ((t -. ctx.t_start) *. 1e6) in
  List.iter
    (fun s ->
      Trace.interval (Some tr) ~track:s.sp_layer ~cat:"perfbench"
        ~ts:(us s.sp_t0)
        ~dur:(max 0 (us s.sp_t1 - us s.sp_t0))
        ~args:
          [
            ("span", Trace.Json.Int s.sp_id);
            ("parent", Trace.Json.Int s.sp_parent);
            ("req", Trace.Json.Int s.sp_req);
          ]
        s.sp_name)
    (List.rev ctx.spans);
  let path =
    Filename.concat ctx.out_dir
      (Printf.sprintf "%s-seed%d.trace.json" ctx.workload ctx.seed)
  in
  Util.File.write_atomic path (Trace.to_chrome_json tr);
  path

(* --- correctness ------------------------------------------------------ *)

(** Count one attempted operation that succeeded. *)
let attempt ctx = ctx.attempted <- ctx.attempted + 1

(** Count one check; a failed check is reported on stderr and counted. *)
let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "FAILED: %s\n%!" what
  end

(** A mismatch explained by a known, recorded defect: counted in the
    [error_rate] and [store.key_collisions] metrics, not in [failed].
    Each distinct message is printed once. *)
let known_defect ctx what =
  ctx.attempted <- ctx.attempted + 1;
  ctx.known <- ctx.known + 1;
  if not (Hashtbl.mem ctx.seen what) then begin
    Hashtbl.add ctx.seen what ();
    Printf.printf "known defect: %s\n" what
  end

(** Run [f]; an exception is a failed operation, never a silent abort. *)
let guard ctx what f =
  match f () with
  | v -> Some v
  | exception e ->
      check ctx false (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

(* --- statistics ------------------------------------------------------- *)

(** Nearest-rank percentile (rank ceil(p*n/100)); 0 on no samples. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      let rank = max 1 (int_of_float (Float.ceil (p *. float n /. 100.))) in
      List.nth s (min n rank - 1)

let median xs = percentile 50. xs

let mean xs =
  match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.
  | _ -> exp (mean (List.map log xs))

let ratio a b = if b = 0. then 0. else a /. b

(** Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  go ()

(* --- metrics and output ----------------------------------------------- *)

(** Set a metric; names a workload leaves unset print as 0 (a layer the
    workload bypasses). *)
let set ctx name value = Hashtbl.replace ctx.metrics name value

let get ctx name = Option.value ~default:0. (Hashtbl.find_opt ctx.metrics name)

(** [rounds ~min ~seconds fs] calls the functions of [fs] in turn, round
    after round: at least [min] rounds, then while [seconds] last,
    stopping when a function's next call would overrun them (judged by
    its previous call). Each call starts from a compacted heap, so
    garbage left by the previous call is not collected on the next one's
    time. Returns, per function, [(result, seconds)] per call, in order. *)
let rounds ~min ~seconds fs =
  let fs = Array.of_list fs in
  let calls = Array.make (Array.length fs) [] in
  let t0 = now () in
  let rec go i n =
    if i = Array.length fs then go 0 (n + 1)
    else
      let last = match calls.(i) with (_, dt) :: _ -> dt | [] -> 0. in
      if n >= min && now () -. t0 +. last > seconds then ()
      else begin
        Gc.compact ();
        calls.(i) <- timed fs.(i) :: calls.(i);
        go (i + 1) n
      end
  in
  go 0 0;
  Array.to_list (Array.map List.rev calls)

(** [repeat ~min ~seconds f] is {!rounds} of [f] alone. *)
let repeat ~min ~seconds f = List.hd (rounds ~min ~seconds [ f ])

(* --- host speed --------------------------------------------------- *)

(* The shared host this benchmark was defined on slows code by up to 2x in
   phases of a fraction of a second to tens of seconds: longer than a
   timed call, sometimes as long as a run. Two probes, fixed loops that
   belong to the benchmark (no change to the program moves them), sample
   its speed around every timed call: one in the style of the simulator's
   kernels (integer multiply-adds over two small arrays), one in the
   style of the compiler (building and folding a balanced map). Every
   host time the benchmark reports is a wall divided by the matching
   probe's time around it, times that probe's fastest time on that host:
   the time the call would have taken there at the host's fastest. *)

let probe_a = Array.init 4096 (fun i -> ((i * 7919) land 255) - 128)
let probe_b = Array.init 4096 (fun i -> ((i * 104729) mod 3) - 1)

(** The kernel probe: the seconds of about a million multiply-adds. *)
let kernel_probe () =
  let t0 = now () in
  let acc = ref 0 in
  for o = 0 to 255 do
    for i = 0 to 4095 - 64 do
      acc :=
        !acc
        + (Array.unsafe_get probe_a (i + (o land 63))
          * Array.unsafe_get probe_b ((i + o) land 4095))
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

module Int_map = Map.Make (Int)

(** The compiler probe: the seconds of 4000 insertions into a map and a
    fold over it. *)
let compiler_probe () =
  let t0 = now () in
  let m = ref Int_map.empty in
  for i = 0 to 3999 do
    m := Int_map.add ((i * 7919) land 4095) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.fold (fun k v a -> a + k + v) !m 0));
  now () -. t0

type probe = Kernel | Compiler

(** Each probe's fastest time on the host the benchmark was defined on. *)
let reference_probe = function Kernel -> 1.15e-3 | Compiler -> 0.45e-3

type host = { kernel : float; compiler : float }  (** probe seconds *)

let fastest_kernel_probe = ref infinity

(** The host's speed now: the mean of two runs of each probe. *)
let host_sample () =
  let k1 = kernel_probe () in
  let k2 = kernel_probe () in
  let c1 = compiler_probe () in
  let c2 = compiler_probe () in
  fastest_kernel_probe := Float.min !fastest_kernel_probe (Float.min k1 k2);
  { kernel = (k1 +. k2) /. 2.; compiler = (c1 +. c2) /. 2. }

type timing = {
  wall : float;  (** seconds *)
  host : host;  (** the mean of the samples just before and just after *)
}

(** [host_timed f] is [(f (), t)], the host sampled around the call. *)
let host_timed f =
  let b = host_sample () in
  let r, wall = timed f in
  let a = host_sample () in
  let host =
    { kernel = (b.kernel +. a.kernel) /. 2.; compiler = (b.compiler +. a.compiler) /. 2. }
  in
  (r, { wall; host })

(** [host_timed_chunks ~chunk f xs] maps [f] over [xs] in chunks of
    [chunk] elements, each chunk {!host_timed}: the host is sampled every
    [chunk] calls, not around each short one. Returns [(f x, t)] per
    element, [t] being its chunk's timing. *)
let host_timed_chunks ~chunk f xs =
  let rec go acc = function
    | [] -> List.concat (List.rev acc)
    | xs ->
        let head = List.filteri (fun i _ -> i < chunk) xs
        and rest = List.filteri (fun i _ -> i >= chunk) xs in
        let ys, t = host_timed (fun () -> List.map f head) in
        go (List.map (fun y -> (y, t)) ys :: acc) rest
  in
  go [] xs

(** [t]'s wall in times of probe [by]: what {!at_reference} scales. *)
let relative by t =
  t.wall /. match by with Kernel -> t.host.kernel | Compiler -> t.host.compiler

(** [at_reference by r] turns [r] times of probe [by] into seconds on a
    host where that probe takes {!reference_probe}. *)
let at_reference by r = r *. reference_probe by

(** [host_rounds ~min ~seconds fs] is {!rounds} with every call
    {!host_timed}. *)
let host_rounds ~min ~seconds fs =
  rounds ~min ~seconds (List.map (fun f () -> host_timed f) fs) |> List.map (List.map fst)

(** Seconds of one round of serving calls, one call of each function, at
    the kernel probe's reference speed: the sum of each function's mean
    relative wall. *)
let round_at_reference calls =
  at_reference Kernel
    (List.fold_left
       (fun acc c -> acc +. mean (List.map (fun (_, t) -> relative Kernel t) c))
       0. calls)

(** The same round at the host's speed as it was: the sum of mean walls. *)
let round_wall calls =
  List.fold_left (fun acc c -> acc +. mean (List.map (fun (_, t) -> t.wall) c)) 0. calls

(** Record one sample under [name]; {!samples} returns them in order. *)
let add ctx name v =
  Hashtbl.replace ctx.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt ctx.samples name))

let samples ctx name =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt ctx.samples name))

let ms s = s *. 1000.

(** Remove a directory tree (store directories between passes). *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(** The result line: [names] are the [(name, unit)] pairs of the mode. *)
let result_json ctx names =
  let open Trace.Json in
  Obj
    [
      ("correct", Bool (ctx.failed = 0));
      ("attempted", Int ctx.attempted);
      ("failed", Int ctx.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, unit) ->
               (name, Obj [ ("value", Float (get ctx name)); ("unit", Str unit) ]))
             names) );
    ]

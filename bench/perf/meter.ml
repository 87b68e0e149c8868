(* Host-side measurement for the benchmark: a monotonic clock, order
   statistics, FNV-1a digests, process memory, and the in-memory recorder
   of bench-side host spans used by the traced run. Nothing here reaches
   into the libraries under test; every span wraps a call into one of
   their public functions. *)

let now_ns () = Monotonic_clock.now ()

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9)

(* Linear-interpolated quantile of a non-empty sample (the rule
   Desim.Stats uses). *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Meter.quantile: empty sample";
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Median of [reps] timed calls of [f], each followed by an untimed
   [after]; [f] returns the value its own check needs, and the last one
   is handed back. *)
let median_of ?(after = ignore) ~reps f =
  let last = ref None in
  let times =
    List.init reps (fun _ ->
        let r, dt = timed f in
        after ();
        last := Some r;
        dt)
  in
  (median times, Option.get !last)

(* FNV-1a, 64 bit *)
let fnv_offset = 0xcbf29ce484222325L

let fnv h s =
  String.fold_left
    (fun h c ->
      Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    h s

let hex64 h = Printf.sprintf "%016Lx" h

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.get

(* ------------------------------------------------------------------ *)
(* Host spans                                                         *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_layer : string;
  sp_name : string;
  sp_start : int64;
  mutable sp_stop : int64;
}

let recording = ref false
let recorded : span list ref = ref [] (* reverse open order *)
let open_stack : int list ref = ref []
let next_id = ref 0

(* Run [f] inside a host span attributed to [layer]. Spans nest by the
   dynamic call stack and are kept in memory until {!to_trace}. Costs
   one branch when recording is off. *)
let span ~layer name f =
  if not !recording then f ()
  else begin
    let sp =
      {
        sp_id = !next_id;
        sp_parent = (match !open_stack with p :: _ -> Some p | [] -> None);
        sp_layer = layer;
        sp_name = name;
        sp_start = now_ns ();
        sp_stop = 0L;
      }
    in
    incr next_id;
    recorded := sp :: !recorded;
    open_stack := sp.sp_id :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_stop <- now_ns ();
        open_stack := List.tl !open_stack)
      f
  end

let spans () = List.rev !recorded
let dur sp = Int64.sub sp.sp_stop sp.sp_start

(* The host spans as a Trace.t on one "host" track, timestamps in ps
   (ns x 1000) from the first span, so Trace.to_chrome_json renders real
   microseconds. *)
let to_trace () =
  let spans = spans () in
  let origin = match spans with s :: _ -> s.sp_start | [] -> 0L in
  let ps t = Int64.to_int (Int64.sub t origin) * 1000 in
  let tr = Trace.create () in
  let ids = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let parent = Option.map (Hashtbl.find ids) s.sp_parent in
      let id =
        Trace.complete_span tr ~start:(ps s.sp_start) ~stop:(ps s.sp_stop)
          ?parent ~track:"host" ~cat:s.sp_layer ~name:s.sp_name ()
      in
      Hashtbl.replace ids s.sp_id id)
    spans;
  tr

(* Per-layer self time of the spans under the root span named [root]:
   each span's duration minus the part its child spans cover (children
   run sequentially, so coverage is their sum). Rows are (layer, spans,
   self seconds), largest self time first. *)
let self_times ~root =
  let root_of = Hashtbl.create 256 in
  let spans =
    List.filter
      (fun s ->
        let r =
          match s.sp_parent with
          | Some p -> Hashtbl.find root_of p
          | None -> s.sp_name
        in
        Hashtbl.replace root_of s.sp_id r;
        r = root)
      (spans ())
  in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.sp_parent with
      | Some p ->
          let c = Option.value ~default:0L (Hashtbl.find_opt covered p) in
          Hashtbl.replace covered p (Int64.add c (dur s))
      | None -> ())
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Int64.sub (dur s)
          (Option.value ~default:0L (Hashtbl.find_opt covered s.sp_id))
      in
      let n, t =
        Option.value ~default:(0, 0L) (Hashtbl.find_opt by_layer s.sp_layer)
      in
      Hashtbl.replace by_layer s.sp_layer (n + 1, Int64.add t self))
    spans;
  Hashtbl.fold
    (fun layer (n, t) acc -> (layer, n, Int64.to_float t *. 1e-9) :: acc)
    by_layer []
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

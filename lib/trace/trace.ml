type arg =
  | Int of int
  | Float of float
  | Str of string

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_txn : int option;
  sp_track : string;
  sp_cat : string;
  sp_name : string;
  sp_start : int;
  mutable sp_stop : int option;
  mutable sp_args : (string * arg) list; (* reverse attach order *)
}

type instant = {
  in_track : string;
  in_cat : string;
  in_name : string;
  in_time : int;
  in_parent : int option;
  in_args : (string * arg) list;
}

type level_sample = { ls_name : string; ls_time : int; ls_value : int }

module S = Desim.Stats

type t = {
  mutable spans : span array; (* slot i holds span id i, i < n_spans *)
  mutable n_spans : int;
  mutable instants : instant list; (* reverse record order *)
  mutable samples : level_sample list; (* reverse record order *)
  mutable next_txn : int;
  counters : (string, S.counter) Hashtbl.t;
  mutable counter_order : string list; (* reverse registration order *)
  series : (string, S.series) Hashtbl.t;
  mutable series_order : string list;
  hists : (string, S.histogram) Hashtbl.t;
  mutable hist_order : string list;
}

let create () =
  {
    spans = [||];
    n_spans = 0;
    instants = [];
    samples = [];
    next_txn = 0;
    counters = Hashtbl.create 16;
    counter_order = [];
    series = Hashtbl.create 16;
    series_order = [];
    hists = Hashtbl.create 16;
    hist_order = [];
  }

let fresh_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  id

(* -- spans ---------------------------------------------------------- *)

(* A span id is its index in [spans]. *)
let find_span t id =
  if id >= 0 && id < t.n_spans then Some t.spans.(id) else None

(* Every span, in begin (= id) order. *)
let all_spans t = List.init t.n_spans (Array.get t.spans)

let begin_span t ~now ?parent ?txn ~track ~cat ~name () =
  let id = t.n_spans in
  let txn =
    match (txn, parent) with
    | (Some _ as x), _ -> x
    | None, Some p -> Option.bind (find_span t p) (fun sp -> sp.sp_txn)
    | None, None -> None
  in
  let sp =
    {
      sp_id = id;
      sp_parent = parent;
      sp_txn = txn;
      sp_track = track;
      sp_cat = cat;
      sp_name = name;
      sp_start = now;
      sp_stop = None;
      sp_args = [];
    }
  in
  if id = Array.length t.spans then begin
    let grown = Array.make (max 256 (2 * id)) sp in
    Array.blit t.spans 0 grown 0 id;
    t.spans <- grown
  end;
  t.spans.(id) <- sp;
  t.n_spans <- id + 1;
  id

let end_span t ~now id =
  match find_span t id with
  | Some sp when sp.sp_stop = None -> sp.sp_stop <- Some now
  | _ -> ()

(* Record a span whose extent is already known — the retrospective form
   used for intervals measured by the caller (queue waits, lock waits). *)
let complete_span t ~start ~stop ?parent ?txn ~track ~cat ~name ?(args = [])
    () =
  let id = begin_span t ~now:start ?parent ?txn ~track ~cat ~name () in
  t.spans.(id).sp_args <- List.rev args;
  end_span t ~now:stop id;
  id

let add_arg t id key v =
  match find_span t id with
  | Some sp -> sp.sp_args <- (key, v) :: sp.sp_args
  | None -> ()

let instant t ~now ?parent ~track ~cat ~name ?(args = []) () =
  t.instants <-
    {
      in_track = track;
      in_cat = cat;
      in_name = name;
      in_time = now;
      in_parent = parent;
      in_args = args;
    }
    :: t.instants

(* -- counter registry ----------------------------------------------- *)

let counter_of t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = S.counter () in
      Hashtbl.replace t.counters name c;
      t.counter_order <- name :: t.counter_order;
      c

let add t name by = S.incr ~by (counter_of t name)

let counter_value t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> S.count c
  | None -> 0

let series_of t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
      let s = S.series () in
      Hashtbl.replace t.series name s;
      t.series_order <- name :: t.series_order;
      s

let observe t name x = S.observe (series_of t name) x

let sample t ~now name v =
  t.samples <- { ls_name = name; ls_time = now; ls_value = v } :: t.samples;
  observe t name (float_of_int v)

let observe_hist t name ~bucket_width x =
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
        let h = S.histogram ~bucket_width in
        Hashtbl.replace t.hists name h;
        t.hist_order <- name :: t.hist_order;
        h
  in
  S.record h x


(* Structured accessors: consumers (the tuner, the profile sink, tests)
   read counter values and series quantiles from the registry itself
   instead of re-parsing an emitted sink. *)

module Counters = struct
  let snapshot t =
    List.rev_map (fun name -> (name, counter_value t name)) t.counter_order
end

module Series = struct
  type summary = {
    su_n : int;
    su_mean : float;
    su_p50 : float;
    su_p95 : float;
    su_p99 : float;
    su_max : float;
  }

  let names t = List.rev t.series_order

  let summary t name =
    match Hashtbl.find_opt t.series name with
    | None -> None
    | Some s -> (
        match S.summarize_opt s with
        | None -> None
        | Some sum ->
            let q x = Option.value ~default:0. (S.quantile_opt s ~q:x) in
            Some
              {
                su_n = sum.S.n;
                su_mean = sum.S.mean;
                su_p50 = q 0.50;
                su_p95 = q 0.95;
                su_p99 = q 0.99;
                su_max = sum.S.max;
              })

  let snapshot t =
    List.filter_map
      (fun name -> Option.map (fun s -> (name, s)) (summary t name))
      (names t)
end

let span_count t = t.n_spans

(* -- well-formedness ------------------------------------------------ *)

let check ?(strict = true) t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun sp ->
      (match sp.sp_stop with
      | None -> bad "span %d (%s): never closed" sp.sp_id sp.sp_name
      | Some stop ->
          if stop < sp.sp_start then
            bad "span %d (%s): stop %d before start %d" sp.sp_id sp.sp_name
              stop sp.sp_start);
      match sp.sp_parent with
      | None -> ()
      | Some p -> (
          match find_span t p with
          | None -> bad "span %d (%s): missing parent %d" sp.sp_id sp.sp_name p
          | Some parent -> (
              if sp.sp_start < parent.sp_start then
                bad "span %d (%s): starts %d before parent %d starts %d"
                  sp.sp_id sp.sp_name sp.sp_start p parent.sp_start;
              match (parent.sp_stop, sp.sp_stop) with
              | Some pstop, _ when sp.sp_start > pstop ->
                  bad "span %d (%s): starts %d after parent %d stopped %d"
                    sp.sp_id sp.sp_name sp.sp_start p pstop
              | Some pstop, Some stop when strict && stop > pstop ->
                  bad "span %d (%s): ends %d after parent %d ended %d"
                    sp.sp_id sp.sp_name stop p pstop
              | _ -> ())))
    (all_spans t);
  List.rev !problems

(* -- Chrome trace-event sink ---------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Simulated picoseconds -> trace-format microseconds, as an exact
   decimal string: wall-clock never enters, so output is reproducible. *)
let ts_us ps = Printf.sprintf "%d.%06d" (ps / 1_000_000) (abs ps mod 1_000_000)

let arg_json (k, v) =
  let v =
    match v with
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%.6g" f
    | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  in
  Printf.sprintf "\"%s\":%s" (json_escape k) v

let args_json kvs =
  match kvs with
  | [] -> ""
  | kvs ->
      Printf.sprintf ",\"args\":{%s}"
        (String.concat "," (List.map arg_json kvs))

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let events = ref [] in
  let emit s = events := s :: !events in
  (* Track -> tid in first-seen order over spans then instants, so the
     mapping is a pure function of recording order. *)
  let tids = Hashtbl.create 16 in
  let track_order = ref [] in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tids + 1 in
        Hashtbl.replace tids track id;
        track_order := track :: !track_order;
        id
  in
  let spans = all_spans t in
  let instants = List.rev t.instants in
  List.iter (fun sp -> ignore (tid_of sp.sp_track)) spans;
  List.iter (fun i -> ignore (tid_of i.in_track)) instants;
  List.iter
    (fun sp ->
      let stop = Option.value ~default:sp.sp_start sp.sp_stop in
      let args =
        (match sp.sp_txn with None -> [] | Some x -> [ ("txn", Int x) ])
        @ (match sp.sp_parent with
          | None -> []
          | Some p -> [ ("parent", Int p) ])
        @ ("span", Int sp.sp_id)
          :: (if sp.sp_stop = None then [ ("unclosed", Int 1) ] else [])
        @ List.rev sp.sp_args
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d%s}"
           (json_escape sp.sp_name) (json_escape sp.sp_cat)
           (ts_us sp.sp_start)
           (ts_us (stop - sp.sp_start))
           (tid_of sp.sp_track) (args_json args)))
    spans;
  List.iter
    (fun i ->
      let args =
        (match i.in_parent with None -> [] | Some p -> [ ("parent", Int p) ])
        @ i.in_args
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":1,\"tid\":%d%s}"
           (json_escape i.in_name) (json_escape i.in_cat) (ts_us i.in_time)
           (tid_of i.in_track) (args_json args)))
    instants;
  List.iter
    (fun s ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"args\":{\"value\":%d}}"
           (json_escape s.ls_name) (ts_us s.ls_time) s.ls_value))
    (List.rev t.samples);
  (* Thread-name metadata so chrome://tracing labels the lanes. *)
  let meta =
    List.rev_map
      (fun track ->
        Printf.sprintf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
          (Hashtbl.find tids track) (json_escape track))
      !track_order
  in
  pf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  Buffer.add_string buf (String.concat ",\n" (meta @ List.rev !events));
  pf "\n]}\n";
  Buffer.contents buf

(* -- profile sink ---------------------------------------------------- *)

let profile t =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let spans = all_spans t in
  let t0 =
    List.fold_left (fun acc sp -> min acc sp.sp_start) max_int spans
  in
  let t1 =
    List.fold_left
      (fun acc sp -> max acc (Option.value ~default:sp.sp_start sp.sp_stop))
      0 spans
  in
  let wall = if spans = [] then 0 else t1 - t0 in
  pf "kernel profile: %d spans, %d transactions, wall %.3f us\n" t.n_spans
    t.next_txn
    (float_of_int wall /. 1e6);
  (* Phase breakdown: per-category totals in first-seen category order. *)
  let cats = Hashtbl.create 8 in
  let cat_order = ref [] in
  List.iter
    (fun sp ->
      let dur = Option.value ~default:sp.sp_start sp.sp_stop - sp.sp_start in
      match Hashtbl.find_opt cats sp.sp_cat with
      | Some (n, total) -> Hashtbl.replace cats sp.sp_cat (n + 1, total + dur)
      | None ->
          Hashtbl.replace cats sp.sp_cat (1, dur);
          cat_order := sp.sp_cat :: !cat_order)
    spans;
  if !cat_order <> [] then begin
    pf "\nphase breakdown (span time by category; phases overlap):\n";
    pf "  %-10s %7s %12s %8s\n" "phase" "spans" "total_us" "%wall";
    List.iter
      (fun cat ->
        let n, total = Hashtbl.find cats cat in
        pf "  %-10s %7d %12.3f %7.1f%%\n" cat n
          (float_of_int total /. 1e6)
          (if wall = 0 then 0. else 100. *. float_of_int total /. float_of_int wall))
      (List.rev !cat_order)
  end;
  (* consume the registry through the structured accessors — the same
     path external consumers (the tuner) use *)
  let counters = Counters.snapshot t in
  if counters <> [] then begin
    pf "\ncounters:\n";
    List.iter (fun (name, v) -> pf "  %-28s %12d\n" name v) counters
  end;
  let series = Series.names t in
  if series <> [] then begin
    pf "\nseries (quantiles over all samples):\n";
    pf "  %-28s %7s %10s %10s %10s %10s %10s\n" "name" "n" "mean" "p50" "p95"
      "p99" "max";
    List.iter
      (fun name ->
        match Series.summary t name with
        | None -> pf "  %-28s %7d %10s\n" name 0 "-"
        | Some sum ->
            pf "  %-28s %7d %10.1f %10.1f %10.1f %10.1f %10.1f\n" name
              sum.Series.su_n sum.Series.su_mean sum.Series.su_p50
              sum.Series.su_p95 sum.Series.su_p99 sum.Series.su_max)
      series
  end;
  let hists = List.rev t.hist_order in
  if hists <> [] then begin
    pf "\nhistograms:\n";
    List.iter
      (fun name ->
        pf "  %s:\n" name;
        let bks = S.buckets (Hashtbl.find t.hists name) in
        let peak =
          List.fold_left (fun acc (_, c) -> max acc c) 1 bks
        in
        List.iter
          (fun (lo, c) ->
            let bar = String.make (c * 40 / peak) '#' in
            pf "    %12.1f %6d %s\n" lo c bar)
          bks)
      hists
  end;
  Buffer.contents b

(* -- ASCII AXI timeline (Fig. 5 view) -------------------------------- *)

let axi_timeline ?time_scale t =
  let spans =
    List.filter (fun sp -> sp.sp_cat = "axi") (all_spans t)
  in
  let beats =
    List.filter (fun i -> i.in_cat = "axi.beat") (List.rev t.instants)
  in
  if spans = [] then "axi timeline: no AXI spans recorded\n"
  else begin
    let t0 =
      List.fold_left (fun acc sp -> min acc sp.sp_start) max_int spans
    in
    let t1 =
      List.fold_left
        (fun acc sp -> max acc (Option.value ~default:sp.sp_start sp.sp_stop))
        0 spans
    in
    let scale =
      match time_scale with
      | Some s when s > 0 -> s
      | _ -> max 1 (((t1 - t0) / 116) + 1)
    in
    let width = min 400 (((t1 - t0) / scale) + 1) in
    let col time = min (width - 1) (max 0 ((time - t0) / scale)) in
    let tracks = ref [] in
    List.iter
      (fun sp ->
        if not (List.mem sp.sp_track !tracks) then
          tracks := sp.sp_track :: !tracks)
      spans;
    let tracks = List.sort compare !tracks in
    let b = Buffer.create 1024 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "axi timeline: %.3f us span, %d ps/col (> issue, - in flight, # beat, | done)\n"
      (float_of_int (t1 - t0) /. 1e6)
      scale;
    List.iter
      (fun track ->
        let lane = Bytes.make width ' ' in
        List.iter
          (fun sp ->
            if sp.sp_track = track then begin
              let c0 = col sp.sp_start in
              let c1 = col (Option.value ~default:sp.sp_start sp.sp_stop) in
              for c = c0 + 1 to c1 - 1 do
                Bytes.set lane c '-'
              done;
              Bytes.set lane c0 '>';
              if c1 > c0 then Bytes.set lane c1 '|'
            end)
          spans;
        List.iter
          (fun i ->
            if i.in_track = track then begin
              let c = col i.in_time in
              if Bytes.get lane c = '-' then Bytes.set lane c '#'
            end)
          beats;
        pf "%-14s %s\n" track (Bytes.to_string lane))
      tracks;
    Buffer.contents b
  end

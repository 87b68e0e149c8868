let log_src = Logs.Src.create "beethoven.soc" ~doc:"Simulated SoC events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  soc_uid : int;
  engine : Desim.Engine.t;
  design : Elaborate.t;
  platform : Platform.Device.t;
  dram : Dram.t;
  axi_ports : Axi.t array; (* one per DDR controller *)
  memory : Bytes.t;
  ace_snoop_ps : int;
      (* embedded platforms: per-transaction AXI-ACE coherence cost *)
  mutable coherent_txns : int;
  mutable cores : core_inst array; (* indexed by command endpoint id *)
  mutable next_axi_id : int;
  fault : Fault.Injector.t option;
  policy : Fault.Policy.t;
  tracer : Trace.t option;
}

and ctx = {
  engine : Desim.Engine.t;
  clock_ps : int;
  core_id : int;
  system : Config.system;
  soc : t;
}

and core_inst = {
  ci_ctx : ctx;
  ci_readers : (string, reader array) Hashtbl.t;
  ci_writers : (string, writer array) Hashtbl.t;
  ci_spads : (string, spad) Hashtbl.t;
  ci_behavior : behavior;
  ci_queue : (Rocc.t list * int option * (int64 -> unit)) Queue.t;
      (* queued beats carry the trace span of the issuing host command *)
  mutable ci_partial : Rocc.t list;
  mutable ci_busy : bool;
  mutable ci_hung : bool;
  mutable ci_partial_epoch : int;
  ci_track : string; (* trace lane, "core <system>/<id>" *)
  ci_cur_span : int option ref;
      (* execution span of the in-flight command; shared with the core's
         readers/writers so their streams parent under it *)
}

and behavior = ctx -> Rocc.t list -> respond:(int64 -> unit) -> unit

and reader = {
  r_soc : t;
  r_axi : Axi.t; (* the DDR controller port this channel is wired to *)
  r_cfg : Config.read_channel;
  r_base_id : int;
  r_noc_ps : int;
  mutable r_busy : bool;
  r_track : string;
  r_parent : unit -> int option; (* current exec span of the owning core *)
}

and writer = {
  w_soc : t;
  w_axi : Axi.t;
  w_cfg : Config.write_channel;
  w_base_id : int;
  w_noc_ps : int;
  mutable w_busy : bool;
  mutable w_txn : writer_txn option;
  w_track : string;
  w_parent : unit -> int option;
}

and writer_txn = {
  wt_total_items : int;
  wt_item_bytes : int;
  mutable wt_pushed : int;
  mutable wt_buffered : int; (* items occupying buffer space (incl. in flight) *)
  mutable wt_unshipped : int; (* buffered items not yet sent to AXI *)
  mutable wt_next_addr : int;
  mutable wt_remaining_bytes : int;
  mutable wt_in_flight : int;
  mutable wt_next_push_time : int;
  wt_waiting_push : (unit -> unit) Queue.t;
  wt_on_done : unit -> unit;
  mutable wt_bursts_outstanding : int;
  mutable wt_all_issued : bool;
  wt_span : int option; (* trace span covering the whole transaction *)
}

and spad = {
  sp_cfg : Config.scratchpad;
  sp_soc : t;
  sp_reader : reader;
  sp_data : Bytes.t;
  sp_row_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Device memory contents                                              *)
(* ------------------------------------------------------------------ *)

let mem_size t = Bytes.length t.memory
let read_u8 t a = Char.code (Bytes.get t.memory a)
let write_u8 t a v = Bytes.set t.memory a (Char.chr (v land 0xff))
let read_u32 t a = Bytes.get_int32_le t.memory a
let write_u32 t a v = Bytes.set_int32_le t.memory a v
let read_u64 t a = Bytes.get_int64_le t.memory a
let write_u64 t a v = Bytes.set_int64_le t.memory a v

let blit_in t ~src ~dst_addr =
  Bytes.blit src 0 t.memory dst_addr (Bytes.length src)

let blit_out t ~src_addr ~dst =
  Bytes.blit t.memory src_addr dst 0 (Bytes.length dst)

let copy_within t ~src ~dst ~bytes = Bytes.blit t.memory src t.memory dst bytes

(* On embedded platforms every fabric access is marked coherent over
   AXI-ACE (§II-C2); the snoop adds a couple of interconnect cycles and is
   counted for the stats report. *)
let coherence_ps t =
  if t.ace_snoop_ps > 0 then begin
    t.coherent_txns <- t.coherent_txns + 1;
    t.ace_snoop_ps
  end
  else 0

(* ------------------------------------------------------------------ *)
(* The AXI burst issuer behind every Reader and Writer path            *)
(* ------------------------------------------------------------------ *)

let beat_bytes axi = (Axi.params axi).Axi.Params.data_bytes

(* [addr, addr + bytes) rounded out to whole AXI beats: the first beat's
   address and the padded length. *)
let pad_to_beats axi ~addr ~bytes =
  let bb = beat_bytes axi in
  let addr0 = addr - (addr mod bb) in
  (addr0, ((addr + bytes + bb - 1) / bb * bb) - addr0)

(* The padded region as legal AXI bursts of at most [burst_beats]. *)
let segments axi ~burst_beats ~addr ~bytes =
  let prm = Axi.params axi in
  let addr0, padded = pad_to_beats axi ~addr ~bytes in
  let max_burst_beats = min prm.Axi.Params.max_burst_beats burst_beats in
  Array.of_list
    (Axi.Burst.split
       ~params:{ prm with Axi.Params.max_burst_beats }
       ~addr:addr0 ~bytes:padded)

(* A channel's [k]th burst goes out on its own AXI ID, or with
   transaction-level parallelism on the IDs after it, round-robin. *)
let pick_id axi ~base_id ~tlp k =
  if tlp then (base_id + k) mod (Axi.params axi).Axi.Params.n_ids else base_id

(* The request of a stream or bulk burst, and of each of its retries,
   travels through the memory NoC (plus the coherence snoop on embedded
   platforms) before reaching the port. *)
let via_mem_noc t ~noc_ps k =
  Desim.Engine.schedule t.engine ~delay:(noc_ps + coherence_ps t) k

let axi_retry_budget t = t.policy.Fault.Policy.axi_max_retries

let axi_backoff t ~attempt =
  t.policy.Fault.Policy.axi_backoff_ps * (1 lsl min attempt 10)

(* Log the [n] failed attempts of one burst, all [Recovered] or all
   [Unrecovered]; the site label is formatted only when there is one. *)
let log_resolution t ~cls ~chan ~path ~addr ~n ~recovered =
  match t.fault with
  | Some inj when n > 0 ->
      let kind =
        if recovered then Fault.Log.Recovered else Fault.Log.Unrecovered
      in
      let site = Printf.sprintf "%s %s@0x%x" chan path addr in
      let now = Desim.Engine.now t.engine in
      for _ = 1 to n do
        Fault.Injector.log inj ~now ~cls ~kind ~site
      done
  | _ -> ()

(* Settle one AXI burst. [send k] puts one attempt on the port and calls
   [k] with its response, so the caller decides where an attempt starts.
   An SLVERR/DECERR is retried after an exponential backoff, up to the
   policy's retry budget, and every injected error is resolved exactly
   once: [Recovered] when a retry succeeds, [Unrecovered] when the budget
   runs out. [on_settled ok] then fires once; [ok] is false when the
   burst was given up. *)
let settle_burst t ~cls ~chan ~path ~addr ~send ~on_settled =
  let rec attempt n =
    send (fun resp ->
        if not (Axi.Resp.is_error resp) then begin
          log_resolution t ~cls ~chan ~path ~addr ~n ~recovered:true;
          on_settled true
        end
        else if n < axi_retry_budget t then
          Desim.Engine.schedule t.engine ~delay:(axi_backoff t ~attempt:n)
            (fun () -> attempt (n + 1))
        else begin
          log_resolution t ~cls ~chan ~path ~addr ~n:(n + 1) ~recovered:false;
          on_settled false
        end)
  in
  attempt 0

(* The windowed bulk loop behind Reader.bulk and Writer.bulk: the bursts
   of [segs] go out in order through the memory NoC, at most
   [max_in_flight] outstanding; [send si seg k] issues one attempt of
   burst [si] at the port, and [on_all] fires once the last has settled,
   recovered or not. *)
let bulk_loop t ~cls ~chan ~path ~noc_ps ~segs ~max_in_flight ~send ~on_all =
  let n_segs = Array.length segs in
  let in_flight = ref 0 in
  let next_seg = ref 0 in
  let completed = ref 0 in
  let rec try_issue () =
    if !next_seg < n_segs && !in_flight < max_in_flight then begin
      let si = !next_seg in
      let seg = segs.(si) in
      incr next_seg;
      incr in_flight;
      settle_burst t ~cls ~chan ~path ~addr:seg.Axi.Burst.addr
        ~send:(fun k -> via_mem_noc t ~noc_ps (fun () -> send si seg k))
        ~on_settled:(fun _ ->
          decr in_flight;
          incr completed;
          if !completed = n_segs then on_all () else try_issue ());
      try_issue ()
    end
  in
  try_issue ()

(* Open a span covering one reader/writer stream, parented under the
   owning core's in-flight execution span; returns an [on_done] wrapper
   that closes it. *)
let stream_span soc ~track ~parent ~hop_ps ~name ~on_done =
  match soc.tracer with
  | None -> (None, on_done)
  | Some tr ->
      let clock_ps = soc.platform.Platform.Device.fabric_clock_ps in
      Trace.observe tr "noc.mem.hop_ps" (float_of_int hop_ps);
      Trace.observe_hist tr "noc.mem.hop_ps"
        ~bucket_width:(float_of_int clock_ps)
        (float_of_int hop_ps);
      let sp =
        Trace.begin_span tr
          ~now:(Desim.Engine.now soc.engine)
          ?parent:(parent ()) ~track ~cat:"mem" ~name ()
      in
      ( Some sp,
        fun () ->
          Trace.end_span tr ~now:(Desim.Engine.now soc.engine) sp;
          on_done () )

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type r = reader

  let beat_bytes (r : r) = beat_bytes r.r_axi

  let segments (r : r) ~addr ~bytes =
    segments r.r_axi ~burst_beats:r.r_cfg.Config.rc_burst_beats ~addr ~bytes

  let pick_id (r : r) k =
    pick_id r.r_axi ~base_id:r.r_base_id ~tlp:r.r_cfg.Config.rc_use_tlp k

  let open_span (r : r) ~name ~on_done =
    stream_span r.r_soc ~track:r.r_track ~parent:r.r_parent ~hop_ps:r.r_noc_ps
      ~name ~on_done

  let stream (r : r) ~addr ~bytes ?item_bytes ~on_item ~on_done () =
    if r.r_busy then failwith "Reader busy: one stream at a time";
    if bytes <= 0 then invalid_arg "Reader.stream: bytes";
    r.r_busy <- true;
    let engine = r.r_soc.engine in
    let clock_ps = r.r_soc.platform.Platform.Device.fabric_clock_ps in
    let bb = beat_bytes r in
    let item_bytes =
      Option.value item_bytes ~default:r.r_cfg.Config.rc_data_bytes
    in
    if item_bytes > bb || bb mod item_bytes <> 0 then
      invalid_arg "Reader.stream: item width must divide the AXI beat";
    let span, on_done =
      open_span r ~name:(Printf.sprintf "rd.stream 0x%x %dB" addr bytes)
        ~on_done
    in
    let items_per_beat = bb / item_bytes in
    let lead_items = addr mod bb / item_bytes in
    let n_items = ((bytes - 1) / item_bytes) + 1 in
    let segs = segments r ~addr ~bytes in
    let n_segs = Array.length segs in
    (* beat arrival times, flattened; segment [si]'s beats start at
       [seg_base.(si)] *)
    let seg_base = Array.make n_segs 0 in
    for si = 1 to n_segs - 1 do
      seg_base.(si) <- seg_base.(si - 1) + segs.(si - 1).Axi.Burst.beats
    done;
    let beat_time =
      Array.make (seg_base.(n_segs - 1) + segs.(n_segs - 1).Axi.Burst.beats)
        max_int
    in
    let free_beats = ref r.r_cfg.Config.rc_buffer_beats in
    let in_flight = ref 0 in
    let next_seg = ref 0 in
    (* delivery cursor *)
    let delivered = ref 0 in
    let next_delivery = ref 0 in
    let pumping = ref false in
    let rec try_issue () =
      if
        !next_seg < n_segs
        && !in_flight < r.r_cfg.Config.rc_max_in_flight
        && !free_beats >= segs.(!next_seg).Axi.Burst.beats
      then begin
        let si = !next_seg in
        incr next_seg;
        free_beats := !free_beats - segs.(si).Axi.Burst.beats;
        incr in_flight;
        issue_seg si;
        try_issue ()
      end
    and issue_seg si =
      let seg = segs.(si) in
      let base = seg_base.(si) in
      settle_burst r.r_soc ~cls:Fault.Class.Axi_read_error
        ~chan:r.r_cfg.Config.rc_name ~path:"rd seg" ~addr:seg.Axi.Burst.addr
        ~send:(fun k ->
          via_mem_noc r.r_soc ~noc_ps:r.r_noc_ps (fun () ->
              Axi.read ?span r.r_axi ~id:(pick_id r si)
                ~addr:seg.Axi.Burst.addr ~beats:seg.Axi.Burst.beats
                ~on_beat:(fun ~beat ->
                  (* data beat returns through the NoC *)
                  Desim.Engine.schedule engine ~delay:r.r_noc_ps (fun () ->
                      beat_time.(base + beat) <- Desim.Engine.now engine;
                      pump ()))
                ~on_done:k))
        ~on_settled:(fun ok ->
          decr in_flight;
          if not ok then begin
            (* retry budget exhausted: the burst is lost, but its beats
               complete so the pipeline never wedges *)
            let now = Desim.Engine.now engine in
            for b = base to base + seg.Axi.Burst.beats - 1 do
              if beat_time.(b) = max_int then beat_time.(b) <- now
            done;
            pump ()
          end;
          try_issue ())
    and pump () =
      if not !pumping then begin
        pumping := true;
        step ()
      end
    and step () =
      if !delivered >= n_items then begin
        pumping := false;
        r.r_busy <- false;
        on_done ()
      end
      else begin
        let item = !delivered in
        let global_beat = (lead_items + item) / items_per_beat in
        if beat_time.(global_beat) = max_int then pumping := false
          (* beat not here yet; a later arrival re-pumps *)
        else begin
          let now = Desim.Engine.now engine in
          let at = max (max now beat_time.(global_beat)) !next_delivery in
          next_delivery := at + clock_ps;
          Desim.Engine.schedule_at engine ~time:at (fun () ->
              delivered := item + 1;
              on_item ~offset:(item * item_bytes);
              (* freeing: last item of its beat returns a buffer credit *)
              if
                (lead_items + item + 1) mod items_per_beat = 0
                || item + 1 = n_items
              then begin
                incr free_beats;
                try_issue ()
              end;
              step ())
        end
      end
    in
    try_issue ()

  let stream_strided (r : r) ~addr ~row_bytes ~stride ~n_rows ?item_bytes
      ~on_item ~on_done () =
    if row_bytes <= 0 || n_rows <= 0 then
      invalid_arg "Reader.stream_strided: dimensions";
    if stride < row_bytes then
      invalid_arg "Reader.stream_strided: stride smaller than the row";
    let rec row i =
      if i >= n_rows then on_done ()
      else
        stream r ~addr:(addr + (i * stride)) ~bytes:row_bytes ?item_bytes
          ~on_item:(fun ~offset -> on_item ~row:i ~offset)
          ~on_done:(fun () -> row (i + 1))
          ()
    in
    row 0

  let bulk (r : r) ~addr ~bytes ~on_done =
    if r.r_busy then failwith "Reader busy: one stream at a time";
    r.r_busy <- true;
    let span, on_done =
      open_span r ~name:(Printf.sprintf "rd.bulk 0x%x %dB" addr bytes) ~on_done
    in
    bulk_loop r.r_soc ~cls:Fault.Class.Axi_read_error
      ~chan:r.r_cfg.Config.rc_name ~path:"rd-bulk seg" ~noc_ps:r.r_noc_ps
      ~segs:(segments r ~addr ~bytes)
      ~max_in_flight:r.r_cfg.Config.rc_max_in_flight
      ~send:(fun si seg k ->
        Axi.read ?span r.r_axi ~id:(pick_id r si) ~addr:seg.Axi.Burst.addr
          ~beats:seg.Axi.Burst.beats
          ~on_beat:(fun ~beat:_ -> ())
          ~on_done:k)
      ~on_all:(fun () ->
        Desim.Engine.schedule r.r_soc.engine ~delay:r.r_noc_ps (fun () ->
            r.r_busy <- false;
            on_done ()))
end

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type w = writer

  let pick_id (w : w) k =
    pick_id w.w_axi ~base_id:w.w_base_id ~tlp:w.w_cfg.Config.wc_use_tlp k

  let open_span (w : w) ~name ~on_done =
    stream_span w.w_soc ~track:w.w_track ~parent:w.w_parent ~hop_ps:w.w_noc_ps
      ~name ~on_done

  (* Issue the next write burst if enough data is buffered. *)
  let rec try_ship (w : w) txn =
    let bb = beat_bytes w.w_axi in
    let prm = Axi.params w.w_axi in
    let burst_beats =
      min w.w_cfg.Config.wc_burst_beats prm.Axi.Params.max_burst_beats
    in
    if txn.wt_remaining_bytes > 0
       && txn.wt_in_flight < w.w_cfg.Config.wc_max_in_flight
    then begin
      let items_per_beat = max 1 (bb / txn.wt_item_bytes) in
      let want_beats =
        min burst_beats (((txn.wt_remaining_bytes - 1) / bb) + 1)
      in
      (* respect the 4KB rule *)
      let to_boundary =
        (Axi.Burst.boundary - (txn.wt_next_addr mod Axi.Burst.boundary)) / bb
      in
      let want_beats = min want_beats (max 1 to_boundary) in
      let have_items = txn.wt_unshipped in
      let want_items = want_beats * items_per_beat in
      let last_burst = txn.wt_pushed = txn.wt_total_items in
      if have_items >= want_items || last_burst then begin
        (* once everything is pushed, remaining beats may be pure padding
           (sub-beat tails written with byte strobes) *)
        let beats =
          if have_items > 0 then
            min want_beats (((have_items - 1) / items_per_beat) + 1)
          else want_beats
        in
        let burst_bytes = min (beats * bb) txn.wt_remaining_bytes in
        let burst_items = min have_items (beats * items_per_beat) in
        txn.wt_unshipped <- txn.wt_unshipped - burst_items;
        let addr = txn.wt_next_addr in
        txn.wt_next_addr <- txn.wt_next_addr + (beats * bb);
        txn.wt_remaining_bytes <- txn.wt_remaining_bytes - burst_bytes;
        txn.wt_in_flight <- txn.wt_in_flight + 1;
        txn.wt_bursts_outstanding <- txn.wt_bursts_outstanding + 1;
        if txn.wt_remaining_bytes = 0 then txn.wt_all_issued <- true;
        let id = pick_id w (addr / max 1 (beats * bb)) in
        let complete _ =
          txn.wt_in_flight <- txn.wt_in_flight - 1;
          txn.wt_bursts_outstanding <- txn.wt_bursts_outstanding - 1;
          (* the B response frees the buffer space this burst held *)
          txn.wt_buffered <- txn.wt_buffered - burst_items;
          let rec admit n =
            if n > 0 then
              match Queue.take_opt txn.wt_waiting_push with
              | Some k -> k (); admit (n - 1)
              | None -> ()
          in
          admit burst_items;
          if txn.wt_all_issued && txn.wt_bursts_outstanding = 0 then begin
            w.w_busy <- false;
            w.w_txn <- None;
            txn.wt_on_done ()
          end
          else try_ship w txn
        in
        (* the burst crosses the memory NoC once; retries re-issue at the
           port *)
        via_mem_noc w.w_soc ~noc_ps:w.w_noc_ps (fun () ->
            settle_burst w.w_soc ~cls:Fault.Class.Axi_write_error
              ~chan:w.w_cfg.Config.wc_name ~path:"wr burst" ~addr
              ~send:(fun k ->
                Axi.write ?span:txn.wt_span w.w_axi ~id ~addr ~beats
                  ~on_done:k)
              ~on_settled:complete);
        try_ship w txn
      end
    end

  let begin_txn (w : w) ~addr ~bytes ~on_done =
    if w.w_busy then failwith "Writer busy: one transaction at a time";
    if bytes <= 0 then invalid_arg "Writer.begin_txn: bytes";
    w.w_busy <- true;
    let item_bytes = w.w_cfg.Config.wc_data_bytes in
    let addr0, padded = pad_to_beats w.w_axi ~addr ~bytes in
    let span, on_done =
      open_span w ~name:(Printf.sprintf "wr.txn 0x%x %dB" addr bytes) ~on_done
    in
    w.w_txn <-
      Some
        {
          wt_span = span;
          wt_total_items = ((bytes - 1) / item_bytes) + 1;
          wt_item_bytes = item_bytes;
          wt_pushed = 0;
          wt_buffered = 0;
          wt_unshipped = 0;
          wt_next_addr = addr0;
          wt_remaining_bytes = padded;
          wt_in_flight = 0;
          wt_next_push_time = 0;
          wt_waiting_push = Queue.create ();
          wt_on_done = on_done;
          wt_bursts_outstanding = 0;
          wt_all_issued = false;
        }

  let push (w : w) ~on_accept =
    match w.w_txn with
    | None -> failwith "Writer.push: no open transaction"
    | Some txn ->
        let items_per_beat = max 1 (beat_bytes w.w_axi / txn.wt_item_bytes) in
        let capacity = w.w_cfg.Config.wc_buffer_beats * items_per_beat in
        let engine = w.w_soc.engine in
        let clock_ps = w.w_soc.platform.Platform.Device.fabric_clock_ps in
        let admit () =
          txn.wt_pushed <- txn.wt_pushed + 1;
          txn.wt_buffered <- txn.wt_buffered + 1;
          txn.wt_unshipped <- txn.wt_unshipped + 1;
          let at =
            max (Desim.Engine.now engine) txn.wt_next_push_time
          in
          txn.wt_next_push_time <- at + clock_ps;
          Desim.Engine.schedule_at engine ~time:at (fun () ->
              on_accept ();
              try_ship w txn)
        in
        if txn.wt_buffered < capacity && Queue.is_empty txn.wt_waiting_push
        then admit ()
        else Queue.push admit txn.wt_waiting_push

  let bulk (w : w) ~addr ~bytes ~on_done =
    if w.w_busy then failwith "Writer busy: one transaction at a time";
    w.w_busy <- true;
    let span, on_done =
      open_span w ~name:(Printf.sprintf "wr.bulk 0x%x %dB" addr bytes) ~on_done
    in
    bulk_loop w.w_soc ~cls:Fault.Class.Axi_write_error
      ~chan:w.w_cfg.Config.wc_name ~path:"wr-bulk seg" ~noc_ps:w.w_noc_ps
      ~segs:
        (segments w.w_axi ~burst_beats:w.w_cfg.Config.wc_burst_beats ~addr
           ~bytes)
      ~max_in_flight:w.w_cfg.Config.wc_max_in_flight
      ~send:(fun si seg k ->
        Axi.write ?span w.w_axi ~id:(pick_id w si) ~addr:seg.Axi.Burst.addr
          ~beats:seg.Axi.Burst.beats ~on_done:k)
      ~on_all:(fun () ->
        w.w_busy <- false;
        Desim.Engine.schedule w.w_soc.engine ~delay:w.w_noc_ps on_done)
end

(* ------------------------------------------------------------------ *)
(* Scratchpad                                                          *)
(* ------------------------------------------------------------------ *)

module Scratchpad = struct
  type sp = spad

  let depth (sp : sp) = sp.sp_cfg.Config.sp_n_datas
  let latency (sp : sp) = sp.sp_cfg.Config.sp_latency

  let init_from_memory (sp : sp) ~addr ?bytes ~on_done () =
    let total = sp.sp_row_bytes * depth sp in
    let bytes = Option.value bytes ~default:total in
    if bytes > total then invalid_arg "Scratchpad.init: larger than capacity";
    Reader.bulk sp.sp_reader ~addr ~bytes ~on_done:(fun () ->
        (* contents land as the fill completes *)
        Bytes.blit sp.sp_soc.memory addr sp.sp_data 0 bytes;
        on_done ())

  let get (sp : sp) row =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.get: row";
    Bytes.sub sp.sp_data (row * sp.sp_row_bytes) sp.sp_row_bytes

  let set (sp : sp) row v =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.set: row";
    if Bytes.length v <> sp.sp_row_bytes then
      invalid_arg "Scratchpad.set: row width";
    Bytes.blit v 0 sp.sp_data (row * sp.sp_row_bytes) sp.sp_row_bytes

  let get_u64 (sp : sp) row =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.get_u64: row";
    if sp.sp_row_bytes >= 8 then Bytes.get_int64_le sp.sp_data (row * sp.sp_row_bytes)
    else begin
      let v = ref 0L in
      for i = sp.sp_row_bytes - 1 downto 0 do
        v :=
          Int64.logor
            (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get sp.sp_data ((row * sp.sp_row_bytes) + i))))
      done;
      !v
    end

  let set_u64 (sp : sp) row v =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.set_u64: row";
    let n = min sp.sp_row_bytes 8 in
    for i = 0 to n - 1 do
      Bytes.set sp.sp_data
        ((row * sp.sp_row_bytes) + i)
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
    done
end

(* ------------------------------------------------------------------ *)
(* SoC construction                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_axi_id t =
  let n = t.platform.Platform.Device.axi.Axi.Params.n_ids in
  let id = t.next_axi_id mod n in
  t.next_axi_id <- t.next_axi_id + 1;
  id

(* memory channels spread round-robin over the DDR controller ports, as
   the platform developer's channel assignment would *)
let port_for t ep = t.axi_ports.(ep mod Array.length t.axi_ports)

let make_reader t ~cfg ~ep ~noc_ps ~track ~parent =
  { r_soc = t; r_axi = port_for t ep; r_cfg = cfg; r_base_id = fresh_axi_id t;
    r_noc_ps = noc_ps; r_busy = false; r_track = track; r_parent = parent }

let spad_fill_channel (sp : Config.scratchpad) =
  Config.read_channel ~name:(sp.Config.sp_name ^ "[init]")
    ~data_bytes:(max 1 (sp.Config.sp_data_bits / 8))
    ()

let next_soc_uid = ref 0

let create ?(memory_bytes = 64 * 1024 * 1024) ?tracer ?fault
    ?(policy = Fault.Policy.default) (design : Elaborate.t) ~behaviors =
  incr next_soc_uid;
  let engine = Desim.Engine.create () in
  let platform = design.Elaborate.platform in
  let dram = Dram.create engine platform.Platform.Device.dram in
  (match tracer with Some tr -> Dram.set_tracer dram tr | None -> ());
  (* one AXI port per DDR controller; they share the DRAM device model,
     but each has its own per-ID transaction queues *)
  let n_ports = max 1 platform.Platform.Device.dram.Dram.Config.n_channels in
  let axi_ports =
    Array.init n_ports (fun i ->
        Axi.create ?tracer ~name:(Printf.sprintf "ddr%d" i) ?fault engine dram
          platform.Platform.Device.axi)
  in
  let n_cores = Config.total_cores design.Elaborate.config in
  let t =
    {
      soc_uid = !next_soc_uid;
      engine;
      design;
      platform;
      dram;
      memory = Bytes.make memory_bytes '\000';
      ace_snoop_ps =
        (if platform.Platform.Device.host.Platform.Device.shared_address_space
         then 2 * platform.Platform.Device.fabric_clock_ps
         else 0);
      coherent_txns = 0;
      axi_ports;
      cores = [||];
      next_axi_id = 0;
      fault;
      policy;
      tracer;
    }
  in
  (* Wire the ECC/fault tap into the DRAM model: every read burst may
     corrupt a word (latching its pre-corruption codeword), then the
     controller scrubs the burst window; writes drop stale codewords. *)
  (match fault with
  | None -> ()
  | Some inj ->
      let ecc = Fault.Injector.ecc inj in
      Dram.set_burst_hook dram (fun ~addr ~bytes ~dir ->
          match dir with
          | Dram.Write ->
              if addr < Bytes.length t.memory then
                Fault.Ecc.note_write ecc ~addr
                  ~bytes:(min bytes (Bytes.length t.memory - addr))
          | Dram.Read ->
              if addr + bytes <= Bytes.length t.memory then begin
                let now = Desim.Engine.now engine in
                let flip ~cls ~bits =
                  let words = max 1 (bytes / 8) in
                  let word_addr =
                    addr + (8 * Fault.Injector.draw_int inj ~bound:words)
                  in
                  if word_addr + 8 <= Bytes.length t.memory then begin
                    let b1 = Fault.Injector.draw_int inj ~bound:64 in
                    Fault.Ecc.inject_flip ecc ~mem:t.memory ~word_addr ~bit:b1;
                    if bits > 1 then begin
                      let b2 =
                        (b1 + 1 + Fault.Injector.draw_int inj ~bound:63) mod 64
                      in
                      Fault.Ecc.inject_flip ecc ~mem:t.memory ~word_addr ~bit:b2
                    end;
                    Fault.Injector.log inj ~now ~cls ~kind:Fault.Log.Injected
                      ~site:
                        (Printf.sprintf "dram word 0x%x, %d bit%s flipped"
                           word_addr bits (if bits > 1 then "s" else ""))
                  end
                in
                if Fault.Injector.decide inj Fault.Class.Dram_flip then
                  flip ~cls:Fault.Class.Dram_flip ~bits:1;
                if Fault.Injector.decide inj Fault.Class.Dram_double_flip then
                  flip ~cls:Fault.Class.Dram_double_flip ~bits:2;
                (* the controller checks ECC on every read burst *)
                let corrected, uncorrectable =
                  Fault.Ecc.scrub ecc ~mem:t.memory ~addr ~bytes
                in
                for _ = 1 to corrected do
                  Fault.Injector.log inj ~now ~cls:Fault.Class.Dram_flip
                    ~kind:Fault.Log.Corrected
                    ~site:(Printf.sprintf "ecc corrected in burst@0x%x" addr)
                done;
                for _ = 1 to uncorrectable do
                  Fault.Injector.log inj ~now ~cls:Fault.Class.Dram_double_flip
                    ~kind:Fault.Log.Unrecovered
                    ~site:
                      (Printf.sprintf "ecc uncorrectable in burst@0x%x" addr)
                done
              end));
  let cores = Array.make n_cores None in
  List.iter
    (fun (sys : Config.system) ->
      for core = 0 to sys.Config.n_cores - 1 do
        let ep =
          Elaborate.cmd_endpoint design ~system:sys.Config.sys_name ~core
        in
        let ctx =
          { engine; clock_ps = platform.Platform.Device.fabric_clock_ps;
            core_id = core; system = sys; soc = t }
        in
        let mem_ep chan =
          Elaborate.mem_endpoint design ~system:sys.Config.sys_name ~core
            ~channel:chan
        in
        let mem_noc_ps chan =
          Noc.latency_ps design.Elaborate.mem_noc ~ep_id:(mem_ep chan)
        in
        (* the core's in-flight execution span; channel streams started by
           the behavior parent under it *)
        let cur_span = ref None in
        let parent () = !cur_span in
        let core_track =
          Printf.sprintf "core %s/%d" sys.Config.sys_name core
        in
        let chan_track chan = Printf.sprintf "%s %s" core_track chan in
        let readers = Hashtbl.create 4 in
        List.iter
          (fun rc ->
            let arr =
              Array.init rc.Config.rc_n_channels (fun i ->
                  let chan = Printf.sprintf "%s[%d]" rc.Config.rc_name i in
                  make_reader t ~cfg:rc ~ep:(mem_ep chan)
                    ~noc_ps:(mem_noc_ps chan) ~track:(chan_track chan)
                    ~parent)
            in
            Hashtbl.add readers rc.Config.rc_name arr)
          sys.Config.read_channels;
        let writers = Hashtbl.create 4 in
        List.iter
          (fun wc ->
            let arr =
              Array.init wc.Config.wc_n_channels (fun i ->
                  let chan = Printf.sprintf "%s[%d]" wc.Config.wc_name i in
                  {
                    w_soc = t;
                    w_axi = port_for t (mem_ep chan);
                    w_cfg = wc;
                    w_base_id = fresh_axi_id t;
                    w_noc_ps = mem_noc_ps chan;
                    w_busy = false;
                    w_txn = None;
                    w_track = chan_track chan;
                    w_parent = parent;
                  })
            in
            Hashtbl.add writers wc.Config.wc_name arr)
          sys.Config.write_channels;
        let spads = Hashtbl.create 4 in
        List.iter
          (fun sp ->
            let row_bytes = max 1 ((sp.Config.sp_data_bits + 7) / 8) in
            let noc_ps, sp_ep =
              if sp.Config.sp_init_from_memory then
                let chan = Printf.sprintf "%s[init]" sp.Config.sp_name in
                (mem_noc_ps chan, mem_ep chan)
              else (0, 0)
            in
            Hashtbl.add spads sp.Config.sp_name
              {
                sp_cfg = sp;
                sp_soc = t;
                sp_reader =
                  make_reader t ~cfg:(spad_fill_channel sp) ~ep:sp_ep ~noc_ps
                    ~track:(chan_track (sp.Config.sp_name ^ "[init]"))
                    ~parent;
                sp_data = Bytes.make (row_bytes * sp.Config.sp_n_datas) '\000';
                sp_row_bytes = row_bytes;
              })
          sys.Config.scratchpads;
        cores.(ep) <-
          Some
            {
              ci_ctx = ctx;
              ci_readers = readers;
              ci_writers = writers;
              ci_spads = spads;
              ci_behavior = behaviors sys.Config.sys_name;
              ci_queue = Queue.create ();
              ci_partial = [];
              ci_busy = false;
              ci_hung = false;
              ci_partial_epoch = 0;
              ci_track = core_track;
              ci_cur_span = cur_span;
            }
      done)
    design.Elaborate.config.Config.systems;
  t.cores <- Array.map Option.get cores;
  t

let engine t = t.engine
let uid t = t.soc_uid
let tracer t = t.tracer
let fault_injector t = t.fault
let policy t = t.policy
let axi_ports t = t.axi_ports
let design t = t.design
let platform t = t.platform
let dram t = t.dram

(* ------------------------------------------------------------------ *)
(* Command dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let find_core t ~system ~core =
  let ep = Elaborate.cmd_endpoint t.design ~system ~core in
  t.cores.(ep)

let cmd_key t ~system_id ~core_id =
  let sys = List.nth t.design.Elaborate.config.Config.systems system_id in
  Elaborate.cmd_endpoint t.design ~system:sys.Config.sys_name ~core:core_id

let core_hung t ~system_id ~core_id =
  t.cores.(cmd_key t ~system_id ~core_id).ci_hung

let spec_for (sys : Config.system) funct =
  List.find_opt (fun c -> c.Cmd_spec.cmd_funct = funct) sys.Config.commands

let queue_depth_name (ci : core_inst) =
  Printf.sprintf "cmdq.%s/%d.depth" ci.ci_ctx.system.Config.sys_name
    ci.ci_ctx.core_id

let rec pump_core t (ci : core_inst) =
  if (not ci.ci_busy) && (not ci.ci_hung) && not (Queue.is_empty ci.ci_queue)
  then begin
    ci.ci_busy <- true;
    let beats, cmd_span, respond = Queue.pop ci.ci_queue in
    let start = Desim.Engine.now t.engine in
    let exec_span =
      match t.tracer with
      | None -> None
      | Some tr ->
          Trace.sample tr ~now:start (queue_depth_name ci)
            (Queue.length ci.ci_queue);
          Some
            (Trace.begin_span tr ~now:start ?parent:cmd_span
               ~track:ci.ci_track ~cat:"exec"
               ~name:
                 (Printf.sprintf "exec funct=%d"
                    (List.hd beats).Rocc.funct)
               ())
    in
    ci.ci_cur_span := exec_span;
    ci.ci_behavior ci.ci_ctx beats ~respond:(fun data ->
        ci.ci_busy <- false;
        (match (t.tracer, exec_span) with
        | Some tr, Some sp ->
            let now = Desim.Engine.now t.engine in
            Trace.end_span tr ~now sp;
            Trace.add tr
              (Printf.sprintf "%s.busy_ps" ci.ci_track)
              (now - start);
            ci.ci_cur_span := None
        | _ -> ());
        respond data;
        pump_core t ci)
  end

(* One message over the command NoC with fault decoration: delay
   injection/recovery is logged, drops are recorded under [key] for the
   runtime watchdog to resolve. Without a fault injector this is a plain
   [Noc.send]. *)
let cmd_noc_send t ~ep_id ~key ~drop_cls ~site ?span k =
  let cmd_noc = t.design.Elaborate.cmd_noc in
  let tracer = t.tracer in
  match t.fault with
  | None ->
      ignore (Noc.send cmd_noc t.engine ~ep_id ?tracer ~label:"cmd" ?span k)
  | Some inj -> (
      let delayed = ref false in
      let k' () =
        if !delayed then
          Fault.Injector.log inj ~now:(Desim.Engine.now t.engine)
            ~cls:Fault.Class.Noc_delay ~kind:Fault.Log.Recovered ~site;
        k ()
      in
      match
        Noc.send cmd_noc t.engine ~ep_id ?tracer ~label:"cmd" ?span
          ~fault:(inj, drop_cls) k'
      with
      | Noc.Delivered -> ()
      | Noc.Delayed d ->
          delayed := true;
          Fault.Injector.log inj ~now:(Desim.Engine.now t.engine)
            ~cls:Fault.Class.Noc_delay ~kind:Fault.Log.Injected
            ~site:(Printf.sprintf "%s (+%d ps)" site d)
      | Noc.Dropped ->
          Fault.Injector.note_lost inj ~now:(Desim.Engine.now t.engine)
            ~cls:drop_cls ~key ~site;
          (match (tracer, span) with
          | Some tr, Some sp ->
              (* tie the lost message back to its ledger entry *)
              Trace.add_arg tr sp "fault_id"
                (Trace.Int (Fault.Injector.last_id inj))
          | _ -> ()))

let send_command ?span t (cmd : Rocc.t) ~on_response =
  let systems = t.design.Elaborate.config.Config.systems in
  if cmd.Rocc.system_id < 0 || cmd.Rocc.system_id >= List.length systems then
    invalid_arg
      (Printf.sprintf "Soc.send_command: no system %d" cmd.Rocc.system_id);
  let sys = List.nth systems cmd.Rocc.system_id in
  if cmd.Rocc.core_id < 0 || cmd.Rocc.core_id >= sys.Config.n_cores then
    invalid_arg
      (Printf.sprintf "Soc.send_command: %s has no core %d"
         sys.Config.sys_name cmd.Rocc.core_id);
  let ci = find_core t ~system:sys.Config.sys_name ~core:cmd.Rocc.core_id in
  let ep =
    Elaborate.cmd_endpoint t.design ~system:sys.Config.sys_name
      ~core:cmd.Rocc.core_id
  in
  let noc_ps = Noc.latency_ps t.design.Elaborate.cmd_noc ~ep_id:ep in
  let mmio_ps = t.platform.Platform.Device.host.Platform.Device.mmio_latency_ps in
  Log.debug (fun m ->
      m "cmd sys=%d core=%d funct=%d @%dps" cmd.Rocc.system_id
        cmd.Rocc.core_id cmd.Rocc.funct (Desim.Engine.now t.engine));
  ignore noc_ps;
  let deliver () =
    (* a hung core swallows its traffic; the runtime watchdog notices *)
    if not ci.ci_hung then begin
      ci.ci_partial <- ci.ci_partial @ [ cmd ];
      ci.ci_partial_epoch <- ci.ci_partial_epoch + 1;
      let expected =
        match spec_for sys cmd.Rocc.funct with
        | Some spec -> Cmd_spec.rocc_beats spec
        | None -> 1
      in
      if List.length ci.ci_partial >= expected then begin
        let beats = ci.ci_partial in
        ci.ci_partial <- [];
        let hang =
          match t.fault with
          | Some inj ->
              Fault.Injector.should_hang inj ~system:cmd.Rocc.system_id
                ~core:cmd.Rocc.core_id
          | None -> false
        in
        if hang then begin
          let inj = Option.get t.fault in
          ci.ci_hung <- true;
          Fault.Injector.note_lost inj
            ~now:(Desim.Engine.now t.engine)
            ~cls:Fault.Class.Core_hang ~key:ep
            ~site:
              (Printf.sprintf "core sys=%d core=%d hung at dispatch"
                 cmd.Rocc.system_id cmd.Rocc.core_id)
        end
        else begin
          let respond data =
            (* response returns over the NoC and is picked up at the MMIO
               frontend *)
            cmd_noc_send t ~ep_id:ep ~key:ep
              ~drop_cls:Fault.Class.Noc_resp_drop
              ~site:
                (Printf.sprintf "resp sys=%d core=%d" cmd.Rocc.system_id
                   cmd.Rocc.core_id)
              ?span
              (fun () ->
                Desim.Engine.schedule t.engine ~delay:mmio_ps (fun () ->
                    on_response
                      {
                        Rocc.resp_system_id = cmd.Rocc.system_id;
                        resp_core_id = cmd.Rocc.core_id;
                        resp_data = data;
                      }))
          in
          Queue.push (beats, span, respond) ci.ci_queue;
          (match t.tracer with
          | Some tr ->
              Trace.sample tr
                ~now:(Desim.Engine.now t.engine)
                (queue_depth_name ci)
                (Queue.length ci.ci_queue)
          | None -> ());
          pump_core t ci
        end
      end
      else begin
        (* arm the reassembly watchdog: if the rest of a multi-beat
           command never lands (a dropped beat), the stale partial is
           torn down so a retry reassembles from a clean slate *)
        match t.fault with
        | None -> ()
        | Some _ ->
            let epoch = ci.ci_partial_epoch in
            Desim.Engine.schedule t.engine
              ~delay:t.policy.Fault.Policy.partial_timeout_ps (fun () ->
                if ci.ci_partial_epoch = epoch && ci.ci_partial <> [] then begin
                  ci.ci_partial <- [];
                  ci.ci_partial_epoch <- ci.ci_partial_epoch + 1;
                  Log.debug (fun m ->
                      m "partial command timed out sys=%d core=%d"
                        cmd.Rocc.system_id cmd.Rocc.core_id)
                end)
      end
    end
  in
  (* the write crosses the MMIO frontend, then the command NoC carries
     the beat to the core *)
  Desim.Engine.schedule t.engine ~delay:mmio_ps (fun () ->
      cmd_noc_send t ~ep_id:ep ~key:ep ~drop_cls:Fault.Class.Noc_cmd_drop
        ~site:
          (Printf.sprintf "cmd beat sys=%d core=%d funct=%d"
             cmd.Rocc.system_id cmd.Rocc.core_id cmd.Rocc.funct)
        ?span deliver)

(* ------------------------------------------------------------------ *)
(* Behavior-facing accessors                                           *)
(* ------------------------------------------------------------------ *)

let core_of_ctx (ctx : ctx) =
  find_core ctx.soc ~system:ctx.system.Config.sys_name ~core:ctx.core_id

let reader ctx ?(idx = 0) name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_readers name with
  | Some arr when idx < Array.length arr -> arr.(idx)
  | _ -> invalid_arg ("Soc.reader: no channel " ^ name)

let writer ctx ?(idx = 0) name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_writers name with
  | Some arr when idx < Array.length arr -> arr.(idx)
  | _ -> invalid_arg ("Soc.writer: no channel " ^ name)

let scratchpad ctx name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_spads name with
  | Some sp -> sp
  | None -> invalid_arg ("Soc.scratchpad: no scratchpad " ^ name)

module Intercore = struct
  type port = {
    p_ctx : ctx;
    p_cfg : Config.intra_core_port;
    mutable p_next_send : int;
  }

  let write port ~target_core ~row ~data ~on_done =
    let ctx = port.p_ctx in
    let t = ctx.soc in
    let target_sys = port.p_cfg.Config.ic_to_system in
    let target =
      try find_core t ~system:target_sys ~core:target_core
      with Invalid_argument _ ->
        invalid_arg "Intercore.write: bad target core"
    in
    let sp =
      match
        Hashtbl.find_opt target.ci_spads port.p_cfg.Config.ic_to_scratchpad
      with
      | Some sp -> sp
      | None -> invalid_arg "Intercore.write: target scratchpad missing"
    in
    if Bytes.length data <> sp.sp_row_bytes then
      invalid_arg "Intercore.write: row width mismatch";
    if row < 0 || row >= sp.sp_cfg.Config.sp_n_datas then
      invalid_arg "Intercore.write: row out of range";
    (* route: source core -> fabric root -> target core, one write per
       cycle per channel *)
    let src_ep =
      Elaborate.cmd_endpoint t.design ~system:ctx.system.Config.sys_name
        ~core:ctx.core_id
    in
    let dst_ep =
      Elaborate.cmd_endpoint t.design ~system:target_sys ~core:target_core
    in
    let latency =
      Noc.latency_ps t.design.Elaborate.cmd_noc ~ep_id:src_ep
      + Noc.latency_ps t.design.Elaborate.cmd_noc ~ep_id:dst_ep
    in
    let now = Desim.Engine.now ctx.engine in
    let start = max now port.p_next_send in
    port.p_next_send <- start + ctx.clock_ps;
    Desim.Engine.schedule_at ctx.engine ~time:(start + latency) (fun () ->
        Scratchpad.set sp row data;
        on_done ())
end

let intercore_out (ctx : ctx) name =
  match
    List.find_opt
      (fun ic -> ic.Config.ic_name = name)
      ctx.system.Config.intra_core_ports
  with
  | Some cfg -> { Intercore.p_ctx = ctx; p_cfg = cfg; p_next_send = 0 }
  | None -> invalid_arg ("Soc.intercore_out: no port " ^ name)

let after_cycles (ctx : ctx) n k =
  Desim.Engine.schedule ctx.engine ~delay:(n * ctx.clock_ps) k

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let stats_report t =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let now = Desim.Engine.now t.engine in
  pr "SoC statistics after %.3f us simulated:\n" (float_of_int now /. 1e6);
  pr "  DRAM: %d B read, %d B written, %.2f GB/s achieved, %d row hits / %d misses\n"
    (Dram.bytes_read t.dram) (Dram.bytes_written t.dram)
    (Dram.achieved_bandwidth_gbs t.dram)
    (Dram.row_hits t.dram) (Dram.row_misses t.dram);
  let reads =
    Array.fold_left (fun acc p -> acc + Axi.reads_issued p) 0 t.axi_ports
  in
  let writes =
    Array.fold_left (fun acc p -> acc + Axi.writes_issued p) 0 t.axi_ports
  in
  pr "  AXI: %d read txns, %d write txns over %d port(s)" reads writes
    (Array.length t.axi_ports);
  let n, total, max_ps =
    Array.fold_left
      (fun (n, total, max_ps) p ->
        match Desim.Stats.summarize_opt (Axi.read_latency p) with
        | Some s ->
            ( n + s.Desim.Stats.n,
              total +. s.Desim.Stats.total,
              Float.max max_ps s.Desim.Stats.max )
        | None -> (n, total, max_ps))
      (0, 0., 0.) t.axi_ports
  in
  if n > 0 then
    pr ", read latency mean %.0f ns (max %.0f)"
      (total /. float_of_int n /. 1000.)
      (max_ps /. 1000.);
  pr "\n";
  pr "  NoC: %d command messages, %d memory-fabric buffers\n"
    (Noc.messages_sent t.design.Elaborate.cmd_noc)
    (Noc.n_buffers t.design.Elaborate.mem_noc);
  if t.ace_snoop_ps > 0 then
    pr "  ACE: %d coherent transactions (%d ps snoop each)\n"
      t.coherent_txns t.ace_snoop_ps;
  (match t.fault with
  | None -> ()
  | Some inj ->
      pr "  faults: %s\n" (Fault.Injector.counters_line inj);
      let ecc = Fault.Injector.ecc inj in
      pr "  ECC: %d corrected, %d uncorrectable\n" (Fault.Ecc.corrected ecc)
        (Fault.Ecc.uncorrectable ecc));
  Buffer.contents buf

let coherent_transactions t = t.coherent_txns

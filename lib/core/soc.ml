(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  engine : Desim.Engine.t;
  design : Elaborate.t;
  platform : Platform.Device.t;
  dram : Dram.t;
  axi_ports : Axi.t array; (* one per DDR controller *)
  mem_bytes : int;
  pages : Bytes.t array; (* device memory, [page_bytes] per slot *)
  ace_snoop_ps : int;
      (* embedded platforms: per-transaction AXI-ACE coherence cost *)
  mutable coherent_txns : int;
  mutable cores : core_inst array; (* indexed by command endpoint id *)
  mutable next_axi_id : int;
  fault : Fault.Injector.t option;
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
  ci_readers : (string, reader) Hashtbl.t;
  ci_writers : (string, writer) Hashtbl.t;
  ci_spads : (string, spad) Hashtbl.t;
  ci_behavior : Rocc.t list -> respond:(int64 -> unit) -> unit;
      (* the behavior applied to [ci_ctx], once, at boot *)
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
  wt_segs : Axi.Burst.segment array; (* the burst plan *)
  mutable wt_next_seg : int; (* the plan's next burst to ship *)
  wt_total_items : int;
  wt_item_bytes : int;
  mutable wt_pushed : int;
  mutable wt_buffered : int; (* bytes occupying buffer space (incl. in flight) *)
  mutable wt_unshipped : int; (* buffered bytes not yet sent to AXI *)
  mutable wt_in_flight : int;
  mutable wt_next_push_time : int;
  wt_waiting_push : (unit -> unit) Queue.t;
  wt_on_done : unit -> unit;
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

(* Device memory is an array of 4 KB pages, the frame size
   [Runtime.Pagemap] models. Every slot starts out holding [zero_page],
   which all SoCs share and nothing writes: a read never allocates, and
   the first write to a slot gives it a page of its own. Host memory so
   follows the bytes a run writes, not [mem_size]. *)
let page_bits = 12
let page_bytes = 1 lsl page_bits
let page_mask = page_bytes - 1
let zero_page = Bytes.make page_bytes '\000'

let mem_size t = t.mem_bytes

let check_range t what addr len =
  if addr < 0 || len < 0 || addr > t.mem_bytes - len then
    invalid_arg
      (Printf.sprintf "Soc.%s: %d B at 0x%x outside %d B of device memory"
         what len addr t.mem_bytes)

(* The page holding address [a], which the caller has checked is in
   range: to read, or ([own_page]) to write. *)
let[@inline] page t a = Array.unsafe_get t.pages (a lsr page_bits)

let fresh_page t a =
  let pg = Bytes.make page_bytes '\000' in
  t.pages.(a lsr page_bits) <- pg;
  pg

let[@inline] own_page t a =
  let pg = page t a in
  if pg != zero_page then pg else fresh_page t a

(* [len] bytes at [addr], cut where they cross a page *)
let rec read_pages t addr dst pos len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_bytes - off) in
    Bytes.blit (page t addr) off dst pos n;
    read_pages t (addr + n) dst (pos + n) (len - n)
  end

let rec write_pages t addr src pos len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_bytes - off) in
    Bytes.blit src pos (own_page t addr) off n;
    write_pages t (addr + n) src (pos + n) (len - n)
  end

let read_into t what addr dst pos len =
  check_range t what addr len;
  read_pages t addr dst pos len

let write_from t what addr src =
  check_range t what addr (Bytes.length src);
  write_pages t addr src 0 (Bytes.length src)

(* The word accessors' fast path: the [n] bytes at [a] are in range and
   on one page. A word that straddles two pages, or an address out of
   range, takes the slow path through a scratch buffer. *)
let[@inline] on_one_page t a n =
  a >= 0 && a <= t.mem_bytes - n && a land page_mask <= page_bytes - n

let read_slow t what a n =
  let b = Bytes.create n in
  read_into t what a b 0 n;
  b

let word n set v =
  let b = Bytes.create n in
  set b 0 v;
  b

let read_u8 t a =
  if on_one_page t a 1 then Char.code (Bytes.get (page t a) (a land page_mask))
  else Char.code (Bytes.get (read_slow t "read_u8" a 1) 0)

let write_u8 t a v =
  let c = Char.chr (v land 0xff) in
  if on_one_page t a 1 then Bytes.set (own_page t a) (a land page_mask) c
  else write_from t "write_u8" a (Bytes.make 1 c)

let read_u32 t a =
  if on_one_page t a 4 then Bytes.get_int32_le (page t a) (a land page_mask)
  else Bytes.get_int32_le (read_slow t "read_u32" a 4) 0

let write_u32 t a v =
  if on_one_page t a 4 then
    Bytes.set_int32_le (own_page t a) (a land page_mask) v
  else write_from t "write_u32" a (word 4 Bytes.set_int32_le v)

let read_u64 t a =
  if on_one_page t a 8 then Bytes.get_int64_le (page t a) (a land page_mask)
  else Bytes.get_int64_le (read_slow t "read_u64" a 8) 0

let write_u64 t a v =
  if on_one_page t a 8 then
    Bytes.set_int64_le (own_page t a) (a land page_mask) v
  else write_from t "write_u64" a (word 8 Bytes.set_int64_le v)

let blit_in t ~src ~dst_addr = write_from t "blit_in" dst_addr src

let blit_out t ~src_addr ~dst =
  read_into t "blit_out" src_addr dst 0 (Bytes.length dst)

(* [len] bytes from [s] to [d], in chunks that stay on one page at each
   end; where both ends share a page, [Bytes.blit] handles the overlap.
   Going up, no source byte is overwritten before it is read unless [d]
   lies inside the source. *)
let rec copy_pages t s d len =
  if len > 0 then begin
    let n = min len (page_bytes - max (s land page_mask) (d land page_mask)) in
    Bytes.blit (page t s) (s land page_mask) (own_page t d) (d land page_mask)
      n;
    copy_pages t (s + n) (d + n) (len - n)
  end

let copy_within t ~src ~dst ~bytes =
  check_range t "copy_within" src bytes;
  check_range t "copy_within" dst bytes;
  if dst > src && dst < src + bytes then begin
    let b = Bytes.create bytes in
    read_pages t src b 0 bytes;
    write_pages t dst b 0 bytes
  end
  else copy_pages t src dst bytes

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

(* [addr, addr + bytes) rounded out to whole AXI beats, as legal AXI
   bursts of at most [burst_beats]. *)
let segments axi ~burst_beats ~addr ~bytes =
  let prm = Axi.params axi in
  let bb = prm.Axi.Params.data_bytes in
  let addr0 = addr - (addr mod bb) in
  let max_burst_beats = min prm.Axi.Params.max_burst_beats burst_beats in
  Array.of_list
    (Axi.Burst.split
       ~params:{ prm with Axi.Params.max_burst_beats }
       ~addr:addr0
       ~bytes:(((addr + bytes + bb - 1) / bb * bb) - addr0))

(* A channel's [k]th burst goes out on its own AXI ID, or with
   transaction-level parallelism on the IDs after it, round-robin. *)
let pick_id axi ~base_id ~tlp k =
  if tlp then (base_id + k) mod (Axi.params axi).Axi.Params.n_ids else base_id

(* The request of a stream or bulk burst, and of each of its retries,
   travels through the memory NoC (plus the coherence snoop on embedded
   platforms) before reaching the port. *)
let via_mem_noc t ~noc_ps k =
  Desim.Engine.schedule t.engine ~delay:(noc_ps + coherence_ps t) k

let policy = Fault.Policy.default

let axi_backoff ~attempt =
  policy.Fault.Policy.axi_backoff_ps * (1 lsl min attempt 10)

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
   recovery policy's retry budget, and every injected error is resolved exactly
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
        else if n < policy.Fault.Policy.axi_max_retries then
          Desim.Engine.schedule t.engine ~delay:(axi_backoff ~attempt:n)
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

  let segments (w : w) ~addr ~bytes =
    segments w.w_axi ~burst_beats:w.w_cfg.Config.wc_burst_beats ~addr ~bytes

  let buffer_bytes (w : w) =
    w.w_cfg.Config.wc_buffer_beats * beat_bytes w.w_axi

  (* An item, which may be wider than a beat, is admitted once all of its
     bytes fit in the buffer. *)
  let has_room (w : w) txn =
    txn.wt_buffered + txn.wt_item_bytes <= buffer_bytes w

  (* Ship the plan's next burst once the unshipped bytes cover it, or
     once every item has been pushed (the tail is padding). *)
  let rec try_ship (w : w) txn =
    if
      txn.wt_next_seg < Array.length txn.wt_segs
      && txn.wt_in_flight < w.w_cfg.Config.wc_max_in_flight
    then begin
      let { Axi.Burst.addr; beats } = txn.wt_segs.(txn.wt_next_seg) in
      let seg_bytes = beats * beat_bytes w.w_axi in
      if txn.wt_unshipped >= seg_bytes || txn.wt_pushed = txn.wt_total_items
      then begin
        let carried = min txn.wt_unshipped seg_bytes in
        txn.wt_unshipped <- txn.wt_unshipped - carried;
        txn.wt_next_seg <- txn.wt_next_seg + 1;
        txn.wt_in_flight <- txn.wt_in_flight + 1;
        let id = pick_id w (addr / seg_bytes) in
        let complete _ =
          txn.wt_in_flight <- txn.wt_in_flight - 1;
          (* the B response frees the buffer space this burst held *)
          txn.wt_buffered <- txn.wt_buffered - carried;
          while has_room w txn && not (Queue.is_empty txn.wt_waiting_push) do
            (Queue.pop txn.wt_waiting_push) ()
          done;
          if txn.wt_next_seg = Array.length txn.wt_segs && txn.wt_in_flight = 0
          then begin
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
    let bb = beat_bytes w.w_axi in
    let item_bytes = w.w_cfg.Config.wc_data_bytes in
    let max_beats = (Axi.params w.w_axi).Axi.Params.max_burst_beats in
    let burst_bytes = bb * min w.w_cfg.Config.wc_burst_beats max_beats in
    (* A burst ships once its bytes are buffered. The unshipped bytes
       step in the granule the item and the beat share, so unless the
       buffer holds a burst and the item that completes it, less that
       granule, the item can wait for room only the burst would free. *)
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    if buffer_bytes w < burst_bytes + item_bytes - gcd item_bytes bb then
      invalid_arg "Writer.begin_txn: buffer cannot hold a burst and one item";
    w.w_busy <- true;
    let span, on_done =
      open_span w ~name:(Printf.sprintf "wr.txn 0x%x %dB" addr bytes) ~on_done
    in
    w.w_txn <-
      Some
        {
          wt_span = span;
          wt_segs = segments w ~addr ~bytes;
          wt_next_seg = 0;
          wt_total_items = ((bytes - 1) / item_bytes) + 1;
          wt_item_bytes = item_bytes;
          wt_pushed = 0;
          wt_buffered = 0;
          wt_unshipped = 0;
          wt_in_flight = 0;
          wt_next_push_time = 0;
          wt_waiting_push = Queue.create ();
          wt_on_done = on_done;
        }

  let push (w : w) ~on_accept =
    match w.w_txn with
    | None -> failwith "Writer.push: no open transaction"
    | Some txn ->
        let engine = w.w_soc.engine in
        let clock_ps = w.w_soc.platform.Platform.Device.fabric_clock_ps in
        let admit () =
          txn.wt_pushed <- txn.wt_pushed + 1;
          txn.wt_buffered <- txn.wt_buffered + txn.wt_item_bytes;
          txn.wt_unshipped <- txn.wt_unshipped + txn.wt_item_bytes;
          let at =
            max (Desim.Engine.now engine) txn.wt_next_push_time
          in
          txn.wt_next_push_time <- at + clock_ps;
          Desim.Engine.schedule_at engine ~time:at (fun () ->
              on_accept ();
              try_ship w txn)
        in
        if has_room w txn && Queue.is_empty txn.wt_waiting_push then admit ()
        else Queue.push admit txn.wt_waiting_push

  let bulk (w : w) ~addr ~bytes ~on_done =
    if w.w_busy then failwith "Writer busy: one transaction at a time";
    w.w_busy <- true;
    let span, on_done =
      open_span w ~name:(Printf.sprintf "wr.bulk 0x%x %dB" addr bytes) ~on_done
    in
    bulk_loop w.w_soc ~cls:Fault.Class.Axi_write_error
      ~chan:w.w_cfg.Config.wc_name ~path:"wr-bulk seg" ~noc_ps:w.w_noc_ps
      ~segs:(segments w ~addr ~bytes)
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

  let init_from_memory (sp : sp) ~addr ?bytes ~on_done () =
    let total = sp.sp_row_bytes * depth sp in
    let bytes = Option.value bytes ~default:total in
    if bytes > total then invalid_arg "Scratchpad.init: larger than capacity";
    Reader.bulk sp.sp_reader ~addr ~bytes ~on_done:(fun () ->
        (* contents land as the fill completes *)
        read_into sp.sp_soc "Scratchpad.init_from_memory" addr sp.sp_data 0
          bytes;
        on_done ())

  let get (sp : sp) row =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.get: row";
    Bytes.sub sp.sp_data (row * sp.sp_row_bytes) sp.sp_row_bytes

  let load_row (sp : sp) row buf =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.load_row: row";
    let n = sp.sp_row_bytes in
    if Bytes.length buf <> n then invalid_arg "Scratchpad.load_row: row width";
    let base = row * n in
    (* eight bytes at a time, then the tail *)
    let i = ref 0 in
    while
      !i + 8 <= n
      && Int64.equal
           (Bytes.get_int64_ne sp.sp_data (base + !i))
           (Bytes.get_int64_ne buf !i)
    do
      i := !i + 8
    done;
    while !i < n && Bytes.get sp.sp_data (base + !i) = Bytes.get buf !i do
      incr i
    done;
    if !i = n then false
    else begin
      Bytes.blit sp.sp_data base buf 0 n;
      true
    end

  let set (sp : sp) row v =
    if row < 0 || row >= depth sp then invalid_arg "Scratchpad.set: row";
    if Bytes.length v <> sp.sp_row_bytes then
      invalid_arg "Scratchpad.set: row width";
    Bytes.blit v 0 sp.sp_data (row * sp.sp_row_bytes) sp.sp_row_bytes
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

let create ?(memory_bytes = 64 * 1024 * 1024) ?tracer ?fault
    (design : Elaborate.t) ~behaviors =
  if memory_bytes <= 0 then
    invalid_arg
      (Printf.sprintf "Soc.create: memory_bytes = %d, must be positive"
         memory_bytes);
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
      engine;
      design;
      platform;
      dram;
      mem_bytes = memory_bytes;
      pages = Array.make ((memory_bytes + page_mask) lsr page_bits) zero_page;
      ace_snoop_ps =
        (if platform.Platform.Device.host.Platform.Device.shared_address_space
         then 2 * platform.Platform.Device.fabric_clock_ps
         else 0);
      coherent_txns = 0;
      axi_ports;
      cores = [||];
      next_axi_id = 0;
      fault;
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
      let get = read_u64 t and set = write_u64 t in
      Dram.set_burst_hook dram (fun ~addr ~bytes ~dir ->
          match dir with
          | Dram.Write ->
              if addr < mem_size t then
                Fault.Ecc.note_write ecc ~addr
                  ~bytes:(min bytes (mem_size t - addr))
          | Dram.Read ->
              if addr + bytes <= mem_size t then begin
                let now = Desim.Engine.now engine in
                let flip ~cls ~bits =
                  let words = max 1 (bytes / 8) in
                  let word_addr =
                    addr + (8 * Fault.Injector.draw_int inj ~bound:words)
                  in
                  if word_addr + 8 <= mem_size t then begin
                    let b1 = Fault.Injector.draw_int inj ~bound:64 in
                    Fault.Ecc.inject_flip ecc ~get ~set ~word_addr ~bit:b1;
                    if bits > 1 then begin
                      let b2 =
                        (b1 + 1 + Fault.Injector.draw_int inj ~bound:63) mod 64
                      in
                      Fault.Ecc.inject_flip ecc ~get ~set ~word_addr ~bit:b2
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
                  Fault.Ecc.scrub ecc ~get ~set ~addr ~bytes
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
            let chan = Elaborate.channel_instance rc.Config.rc_name in
            Hashtbl.add readers rc.Config.rc_name
              (make_reader t ~cfg:rc ~ep:(mem_ep chan)
                 ~noc_ps:(mem_noc_ps chan) ~track:(chan_track chan) ~parent))
          sys.Config.read_channels;
        let writers = Hashtbl.create 4 in
        List.iter
          (fun wc ->
            let chan = Elaborate.channel_instance wc.Config.wc_name in
            Hashtbl.add writers wc.Config.wc_name
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
              ci_behavior = behaviors sys.Config.sys_name ctx;
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
let tracer t = t.tracer
let fault_injector t = t.fault
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
    ci.ci_behavior beats ~respond:(fun data ->
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
   [Noc.send]. [site] formats the fault-log label; only a delay or a
   drop forces it. *)
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
            ~cls:Fault.Class.Noc_delay ~kind:Fault.Log.Recovered
            ~site:(site ());
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
            ~site:(Printf.sprintf "%s (+%d ps)" (site ()) d)
      | Noc.Dropped ->
          Fault.Injector.note_lost inj ~now:(Desim.Engine.now t.engine)
            ~cls:drop_cls ~key ~site:(site ());
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
  let mmio_ps = t.platform.Platform.Device.host.Platform.Device.mmio_latency_ps in
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
              ~site:(fun () ->
                Printf.sprintf "resp sys=%d core=%d" cmd.Rocc.system_id
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
              ~delay:policy.Fault.Policy.partial_timeout_ps (fun () ->
                if ci.ci_partial_epoch = epoch && ci.ci_partial <> [] then begin
                  ci.ci_partial <- [];
                  ci.ci_partial_epoch <- ci.ci_partial_epoch + 1
                end)
      end
    end
  in
  (* the write crosses the MMIO frontend, then the command NoC carries
     the beat to the core *)
  Desim.Engine.schedule t.engine ~delay:mmio_ps (fun () ->
      cmd_noc_send t ~ep_id:ep ~key:ep ~drop_cls:Fault.Class.Noc_cmd_drop
        ~site:(fun () ->
          Printf.sprintf "cmd beat sys=%d core=%d funct=%d"
            cmd.Rocc.system_id cmd.Rocc.core_id cmd.Rocc.funct)
        ?span deliver)

(* ------------------------------------------------------------------ *)
(* Behavior-facing accessors                                           *)
(* ------------------------------------------------------------------ *)

let core_of_ctx (ctx : ctx) =
  find_core ctx.soc ~system:ctx.system.Config.sys_name ~core:ctx.core_id

let reader ctx name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_readers name with
  | Some r -> r
  | None -> invalid_arg ("Soc.reader: no channel " ^ name)

let writer ctx name =
  match Hashtbl.find_opt (core_of_ctx ctx).ci_writers name with
  | Some w -> w
  | None -> invalid_arg ("Soc.writer: no channel " ^ name)

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
       fabric cycle *)
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

module Resp = struct
  type t = Okay | Slverr | Decerr

  let name = function
    | Okay -> "OKAY"
    | Slverr -> "SLVERR"
    | Decerr -> "DECERR"

  let is_error = function Okay -> false | Slverr | Decerr -> true
end

module Params = struct
  type t = { data_bytes : int; max_burst_beats : int; n_ids : int }

  let aws_f1 = { data_bytes = 64; max_burst_beats = 64; n_ids = 16 }
  let kria = { data_bytes = 16; max_burst_beats = 64; n_ids = 6 }
end

module Burst = struct
  type segment = { addr : int; beats : int }

  let boundary = 4096

  let split ~(params : Params.t) ~addr ~bytes =
    if bytes <= 0 then invalid_arg "Burst.split: bytes must be positive";
    if bytes mod params.data_bytes <> 0 then
      invalid_arg "Burst.split: bytes not a multiple of the beat size";
    if addr mod params.data_bytes <> 0 then
      invalid_arg "Burst.split: address not beat-aligned";
    let rec go addr remaining acc =
      if remaining = 0 then List.rev acc
      else begin
        let to_boundary = boundary - (addr mod boundary) in
        let max_bytes =
          min
            (min remaining to_boundary)
            (params.max_burst_beats * params.data_bytes)
        in
        let beats = max_bytes / params.data_bytes in
        go (addr + max_bytes) (remaining - max_bytes)
          ({ addr; beats } :: acc)
      end
    in
    go addr bytes []
end

type txn = {
  txn_id : int;
  txn_addr : int;
  txn_beats : int;
  txn_dir : Dram.dir;
  txn_on_beat : beat:int -> unit;
  txn_on_done : Resp.t -> unit;
  txn_issued_at : int;
  txn_span : int option; (* structured-trace span for this burst *)
  txn_track : string; (* its trace lane; "" when untraced *)
}

type id_queue = { q : txn Queue.t; mutable in_flight : bool }

type t = {
  engine : Desim.Engine.t;
  dram : Dram.t;
  prm : Params.t;
  tracer : Trace.t option;
  port_name : string;
  mutable outstanding : int; (* accepted but not yet responded *)
  fault : Fault.Injector.t option;
  (* Per-(direction, id) queues. At most one transaction per queue is in
     flight at the DRAM; the rest wait — same-ID ordering. *)
  read_queues : id_queue array;
  write_queues : id_queue array;
  read_latency : Desim.Stats.series;
  write_latency : Desim.Stats.series;
  mutable reads_issued : int;
  mutable writes_issued : int;
  mutable error_responses : int;
}

let create ?tracer ?(name = "axi") ?fault engine dram prm =
  {
    engine;
    dram;
    prm;
    tracer;
    port_name = name;
    outstanding = 0;
    fault;
    read_queues =
      Array.init prm.Params.n_ids (fun _ ->
          { q = Queue.create (); in_flight = false });
    write_queues =
      Array.init prm.Params.n_ids (fun _ ->
          { q = Queue.create (); in_flight = false });
    read_latency = Desim.Stats.series ();
    write_latency = Desim.Stats.series ();
    reads_issued = 0;
    writes_issued = 0;
    error_responses = 0;
  }

let params t = t.prm

let sample_outstanding t =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.sample tr
        ~now:(Desim.Engine.now t.engine)
        (t.port_name ^ ".outstanding")
        t.outstanding

(* Close a burst's span and update registry counters at response time. *)
let finish_txn t txn resp =
  t.outstanding <- t.outstanding - 1;
  match t.tracer with
  | None -> ()
  | Some tr ->
      let now = Desim.Engine.now t.engine in
      (match txn.txn_span with
      | None -> ()
      | Some span ->
          Trace.add_arg tr span "resp" (Trace.Str (Resp.name resp));
          Trace.end_span tr ~now span);
      let bytes = txn.txn_beats * t.prm.Params.data_bytes in
      let lat = float_of_int (now - txn.txn_issued_at) in
      (match txn.txn_dir with
      | Dram.Read ->
          if resp = Resp.Okay then
            Trace.add tr (t.port_name ^ ".read_bytes") bytes;
          Trace.observe tr (t.port_name ^ ".rd_latency_ps") lat
      | Dram.Write ->
          if resp = Resp.Okay then
            Trace.add tr (t.port_name ^ ".write_bytes") bytes;
          Trace.observe tr (t.port_name ^ ".wr_latency_ps") lat);
      if Resp.is_error resp then Trace.add tr (t.port_name ^ ".errors") 1;
      sample_outstanding t

let check_burst t ~id ~addr ~beats =
  if id < 0 || id >= t.prm.Params.n_ids then invalid_arg "Axi: bad id";
  if beats < 1 || beats > t.prm.Params.max_burst_beats then
    invalid_arg "Axi: illegal burst length";
  if addr mod t.prm.Params.data_bytes <> 0 then
    invalid_arg "Axi: address not beat-aligned";
  let last = addr + (beats * t.prm.Params.data_bytes) - 1 in
  if addr / Burst.boundary <> last / Burst.boundary then
    invalid_arg "Axi: burst crosses a 4KB boundary"

(* Launch the head transaction of a queue at the DRAM (if idle). *)
let rec launch t queue =
  match Queue.peek_opt queue.q with
  | None -> ()
  | Some _ when queue.in_flight -> ()
  | Some txn ->
      queue.in_flight <- true;
      let injected_resp =
        match t.fault with
        | None -> None
        | Some inj ->
            let cls =
              match txn.txn_dir with
              | Dram.Read -> Fault.Class.Axi_read_error
              | Dram.Write -> Fault.Class.Axi_write_error
            in
            if Fault.Injector.decide inj cls then begin
              let resp =
                if Fault.Injector.draw_int inj ~bound:4 = 0 then Resp.Decerr
                else Resp.Slverr
              in
              Fault.Injector.log inj
                ~now:(Desim.Engine.now t.engine)
                ~cls ~kind:Fault.Log.Injected
                ~site:
                  (Printf.sprintf "axi %s id=%d addr=0x%x beats=%d -> %s"
                     (match txn.txn_dir with
                     | Dram.Read -> "rd"
                     | Dram.Write -> "wr")
                     txn.txn_id txn.txn_addr txn.txn_beats (Resp.name resp));
              Some (resp, Fault.Injector.last_id inj)
            end
            else None
      in
      (match injected_resp with
      | Some (resp, fault_id) ->
          (* the slave errors the whole burst: no data beats, an error
             response after roughly a CAS latency *)
          let cfg = Dram.config t.dram in
          let err_latency = cfg.Dram.Config.cl * cfg.Dram.Config.tck_ps in
          t.error_responses <- t.error_responses + 1;
          Desim.Engine.schedule t.engine ~delay:err_latency (fun () ->
              queue.in_flight <- false;
              ignore (Queue.pop queue.q);
              (match (t.tracer, txn.txn_span) with
              | Some tr, Some span ->
                  (* cross-reference the fault-ledger entry that errored us *)
                  Trace.add_arg tr span "fault_id" (Trace.Int fault_id)
              | _ -> ());
              finish_txn t txn resp;
              txn.txn_on_done resp;
              launch t queue)
      | None ->
      let data_bytes = t.prm.Params.data_bytes in
      let chunk_bytes = Dram.Config.burst_bytes (Dram.config t.dram) in
      (* wide AXI beats span several DRAM chunks; narrow beats share one *)
      let chunks_per_beat = max 1 (data_bytes / chunk_bytes) in
      let beats_per_chunk = max 1 (chunk_bytes / data_bytes) in
      let total_chunks =
        max 1 (((txn.txn_beats * data_bytes) - 1) / chunk_bytes + 1)
      in
      let fire_beat beat =
        let beat = min beat (txn.txn_beats - 1) in
        (match t.tracer with
        | None -> ()
        | Some tr ->
            Trace.instant tr
              ~now:(Desim.Engine.now t.engine)
              ?parent:txn.txn_span ~track:txn.txn_track
              ~cat:"axi.beat"
              ~name:(Printf.sprintf "beat %d" beat)
              ());
        txn.txn_on_beat ~beat
      in
      Dram.submit t.dram ~addr:txn.txn_addr
        ~bytes:(txn.txn_beats * data_bytes)
        ~dir:txn.txn_dir
        ~on_chunk:(fun ~chunk ->
          if beats_per_chunk > 1 then begin
            (* one DRAM chunk completes several narrow beats *)
            let first = chunk * beats_per_chunk in
            let last =
              min (((chunk + 1) * beats_per_chunk) - 1) (txn.txn_beats - 1)
            in
            for beat = first to last do
              fire_beat beat
            done
          end
          else if
            (chunk + 1) mod chunks_per_beat = 0 || chunk = total_chunks - 1
          then fire_beat (chunk / chunks_per_beat))
        ~on_complete:(fun () ->
          let now = Desim.Engine.now t.engine in
          let lat = float_of_int (now - txn.txn_issued_at) in
          Desim.Stats.observe
            (match txn.txn_dir with
            | Dram.Read -> t.read_latency
            | Dram.Write -> t.write_latency)
            lat;
          queue.in_flight <- false;
          ignore (Queue.pop queue.q);
          finish_txn t txn Resp.Okay;
          txn.txn_on_done Resp.Okay;
          launch t queue)
        ?span:txn.txn_span ())

let enqueue t queue txn =
  Queue.push txn queue.q;
  launch t queue

(* Accept one burst: check it, open its span at issue time (the AR/AW
   handshake) and queue it behind earlier bursts on the same ID. *)
let issue t ~dir ~parent ~id ~addr ~beats ~on_beat ~on_done =
  check_burst t ~id ~addr ~beats;
  let now = Desim.Engine.now t.engine in
  let dir_s, queues =
    match dir with
    | Dram.Read ->
        t.reads_issued <- t.reads_issued + 1;
        ("rd", t.read_queues)
    | Dram.Write ->
        t.writes_issued <- t.writes_issued + 1;
        ("wr", t.write_queues)
  in
  let span, track =
    match t.tracer with
    | None -> (None, "")
    | Some tr ->
        let track = Printf.sprintf "%s %s id%02d" t.port_name dir_s id in
        ( Some
            (Trace.begin_span tr ~now ?parent ~track ~cat:"axi"
               ~name:(Printf.sprintf "%s 0x%x x%d" dir_s addr beats)
               ()),
          track )
  in
  t.outstanding <- t.outstanding + 1;
  sample_outstanding t;
  enqueue t queues.(id)
    {
      txn_id = id;
      txn_addr = addr;
      txn_beats = beats;
      txn_dir = dir;
      txn_on_beat = on_beat;
      txn_on_done = on_done;
      txn_issued_at = now;
      txn_span = span;
      txn_track = track;
    }

let read ?span:parent t ~id ~addr ~beats ~on_beat ~on_done =
  issue t ~dir:Dram.Read ~parent ~id ~addr ~beats ~on_beat ~on_done

let write ?span:parent t ~id ~addr ~beats ~on_done =
  issue t ~dir:Dram.Write ~parent ~id ~addr ~beats
    ~on_beat:(fun ~beat:_ -> ())
    ~on_done

let error_responses t = t.error_responses
let read_latency t = t.read_latency
let write_latency t = t.write_latency
let reads_issued t = t.reads_issued
let writes_issued t = t.writes_issued

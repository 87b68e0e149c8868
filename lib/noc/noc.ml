module Params = struct
  type t = {
    max_fanout : int;
    node_latency_cycles : int;
    slr_crossing_latency_cycles : int;
    clock_ps : int;
  }

  let default ~clock_ps =
    {
      max_fanout = 4;
      node_latency_cycles = 1;
      slr_crossing_latency_cycles = 4;
      clock_ps;
    }
end

type endpoint = { ep_id : int; ep_slr : int }

type t = {
  prm : Params.t;
  root_slr : int;
  endpoints : endpoint list;
  (* ep_id -> (tree depth within its SLR subtree, slr distance to root) *)
  routes : (int, int * int) Hashtbl.t;
  n_buffers : int;
  n_crossings : int;
  mutable messages : int;
  (* per-endpoint earliest-next-arrival clamp: the tree preserves ordering
     along a route, so a delayed message holds back the ones behind it *)
  arrival_floor : (int, int) Hashtbl.t;
}

(* Depth of a balanced tree with the given fanout over [n] leaves, and the
   number of internal nodes it takes. A single leaf hangs directly off the
   subtree root (depth 1 node). *)
let tree_shape ~fanout n =
  let rec go n_leaves depth nodes =
    if n_leaves <= 1 then (depth, nodes)
    else
      let groups = ((n_leaves - 1) / fanout) + 1 in
      go groups (depth + 1) (nodes + groups)
  in
  go n 0 0

let build prm ~root_slr ~endpoints =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ep ->
      if Hashtbl.mem seen ep.ep_id then
        invalid_arg "Noc.build: duplicate endpoint id";
      Hashtbl.add seen ep.ep_id ())
    endpoints;
  (* group endpoints by SLR *)
  let slrs = Hashtbl.create 4 in
  List.iter
    (fun ep ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt slrs ep.ep_slr) in
      Hashtbl.replace slrs ep.ep_slr (ep :: cur))
    endpoints;
  let routes = Hashtbl.create 16 in
  let n_buffers = ref 0 in
  let n_crossings = ref 0 in
  Hashtbl.iter
    (fun slr eps ->
      let n = List.length eps in
      let depth, nodes = tree_shape ~fanout:prm.Params.max_fanout n in
      (* subtree root itself is one buffer node even for a single leaf *)
      let depth = max depth 1 in
      let nodes = max nodes 1 in
      n_buffers := !n_buffers + nodes;
      let dist = abs (slr - root_slr) in
      n_crossings := !n_crossings + dist;
      (* a pipeline buffer per crossing *)
      n_buffers := !n_buffers + dist;
      List.iter (fun ep -> Hashtbl.add routes ep.ep_id (depth, dist)) eps)
    slrs;
  {
    prm;
    root_slr;
    endpoints;
    routes;
    n_buffers = !n_buffers;
    n_crossings = !n_crossings;
    messages = 0;
    arrival_floor = Hashtbl.create 16;
  }

let n_endpoints t = List.length t.endpoints
let n_buffers t = t.n_buffers
let n_slr_crossings t = t.n_crossings

let route t ep_id =
  match Hashtbl.find_opt t.routes ep_id with
  | Some r -> r
  | None -> invalid_arg "Noc: unknown endpoint"

let depth_of t ~ep_id =
  let depth, dist = route t ep_id in
  depth + dist

let latency_cycles t ~ep_id =
  let depth, dist = route t ep_id in
  (depth * t.prm.Params.node_latency_cycles)
  + (dist * t.prm.Params.slr_crossing_latency_cycles)

let latency_ps t ~ep_id = latency_cycles t ~ep_id * t.prm.Params.clock_ps

let describe t =
  let by_slr = Hashtbl.create 4 in
  List.iter
    (fun ep ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt by_slr ep.ep_slr) in
      Hashtbl.replace by_slr ep.ep_slr (cur + 1))
    t.endpoints;
  let slr_lines =
    Hashtbl.fold (fun slr n acc -> (slr, n) :: acc) by_slr []
    |> List.sort compare
    |> List.map (fun (slr, n) ->
           Printf.sprintf "  SLR%d: %d endpoint%s%s" slr n
             (if n = 1 then "" else "s")
             (if slr = t.root_slr then " (root)" else ""))
  in
  String.concat "\n"
    (Printf.sprintf "tree NoC: %d endpoints, %d buffers, %d SLR crossings"
       (n_endpoints t) t.n_buffers t.n_crossings
    :: slr_lines)

type delivery = Delivered | Dropped | Delayed of int

(* The hop's arrival time is known synchronously, so the trace span is
   opened and closed here; drops become instants (no arrival exists). *)
let trace_hop t ?tracer ?(label = "noc") ?span ~engine ~ep_id ~now ~arrival
    delivery =
  match tracer with
  | None -> ()
  | Some tr ->
      ignore engine;
      let track = "noc " ^ label in
      (match delivery with
      | Dropped ->
          Trace.instant tr ~now ?parent:span ~track ~cat:"noc"
            ~name:(Printf.sprintf "drop ep%d" ep_id)
            ()
      | Delivered | Delayed _ ->
          let sp =
            Trace.begin_span tr ~now ?parent:span ~track ~cat:"noc"
              ~name:(Printf.sprintf "hop ep%d" ep_id)
              ()
          in
          (match delivery with
          | Delayed extra -> Trace.add_arg tr sp "delay_ps" (Trace.Int extra)
          | _ -> ());
          Trace.end_span tr ~now:arrival sp;
          let lat = float_of_int (arrival - now) in
          Trace.observe tr (Printf.sprintf "noc.%s.hop_ps" label) lat;
          Trace.observe_hist tr
            (Printf.sprintf "noc.%s.hop_ps" label)
            ~bucket_width:(float_of_int t.prm.Params.clock_ps)
            lat)

let send t engine ~ep_id ?tracer ?label ?span ?fault k =
  t.messages <- t.messages + 1;
  let base = latency_cycles t ~ep_id * t.prm.Params.clock_ps in
  let now = Desim.Engine.now engine in
  match fault with
  | None ->
      Desim.Engine.schedule engine ~delay:base k;
      trace_hop t ?tracer ?label ?span ~engine ~ep_id ~now
        ~arrival:(now + base) Delivered;
      Delivered
  | Some (inj, drop_cls) ->
      if Fault.Injector.decide inj drop_cls then begin
        (* the message vanishes in the fabric: the callback never fires *)
        trace_hop t ?tracer ?label ?span ~engine ~ep_id ~now ~arrival:now
          Dropped;
        Dropped
      end
      else begin
        let extra =
          if Fault.Injector.decide inj Fault.Class.Noc_delay then
            Fault.Injector.draw_delay_ps inj
          else 0
        in
        let arrival = now + base + extra in
        let floor =
          Option.value ~default:0 (Hashtbl.find_opt t.arrival_floor ep_id)
        in
        (* never reorder behind an earlier (possibly delayed) message on
           the same route *)
        let arrival = max arrival floor in
        Hashtbl.replace t.arrival_floor ep_id arrival;
        Desim.Engine.schedule_at engine ~time:arrival k;
        let delivery = if extra > 0 then Delayed extra else Delivered in
        trace_hop t ?tracer ?label ?span ~engine ~ep_id ~now ~arrival delivery;
        delivery
      end

let messages_sent t = t.messages

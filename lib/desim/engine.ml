(* Every engine schedules into a queue, its own or the one it joined:
   one clock, one sequence counter and a binary min-heap ordered by
   (time, key). A key is the lane's rank above [seq_bits] and the
   sequence number below, so one compare orders a tie by (rank, seq)
   for a queue's first 2^48 events. *)
type event = { time : int; key : int; lane : t; action : unit -> unit }

and queue = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable stalled : int;  (* events fired since the clock last moved *)
}

and t = { mutable q : queue; mutable rank_key : int; mutable halted : bool }

let seq_bits = 48
let stall_limit = 10_000_000
let max_rank = (1 lsl (62 - seq_bits)) - 1

let queue heap = { heap; size = 0; clock = 0; next_seq = 0; stalled = 0 }

let nowhere = { q = queue [||]; rank_key = 0; halted = true }
let dummy = { time = 0; key = 0; lane = nowhere; action = ignore }

let create () =
  { q = queue (Array.make 64 dummy); rank_key = 0; halted = false }

let now t = t.q.clock

let before a b = a.time < b.time || (a.time = b.time && a.key < b.key)

let grow q =
  let heap = Array.make (2 * Array.length q.heap) dummy in
  Array.blit q.heap 0 heap 0 q.size;
  q.heap <- heap

let push q ev =
  if q.size = Array.length q.heap then grow q;
  q.heap.(q.size) <- ev;
  q.size <- q.size + 1;
  let i = ref (q.size - 1) in
  while !i > 0 && before q.heap.(!i) q.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    let tmp = q.heap.(parent) in
    q.heap.(parent) <- q.heap.(!i);
    q.heap.(!i) <- tmp;
    i := parent
  done

let pop q =
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  q.heap.(0) <- q.heap.(q.size);
  q.heap.(q.size) <- dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < q.size && before q.heap.(l) q.heap.(!smallest) then smallest := l;
    if r < q.size && before q.heap.(r) q.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = q.heap.(!smallest) in
      q.heap.(!smallest) <- q.heap.(!i);
      q.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

let schedule_at t ~time action =
  let q = t.q in
  if time < q.clock then
    invalid_arg
      (Printf.sprintf
         "Engine.schedule_at: time %d is in the past (clock is at %d)" time
         q.clock);
  if not t.halted then begin
    push q { time; key = t.rank_key lor q.next_seq; lane = t; action };
    q.next_seq <- q.next_seq + 1
  end

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.q.clock + delay) action

let join t ~into ~rank =
  if rank < 0 || rank > max_rank then
    invalid_arg "Engine.join: rank out of range";
  if t.q.size > 0 then
    invalid_arg "Engine.join: the engine has pending events";
  if t.q.clock > into.q.clock then
    invalid_arg "Engine.join: the engine's clock is ahead of the target's";
  t.q <- into.q;
  t.rank_key <- rank lsl seq_bits

(* Halting is rare (a device dies), so the heap is rebuilt without the
   lane's events rather than paying a check on every pop. *)
let halt t =
  t.halted <- true;
  let q = t.q in
  let kept = Array.sub q.heap 0 q.size in
  Array.fill q.heap 0 q.size dummy;
  q.size <- 0;
  Array.iter (fun ev -> if ev.lane != t then push q ev) kept

exception Livelock of { clock : int; pending : int }

let () =
  Printexc.register_printer (function
    | Livelock { clock; pending } ->
        Some
          (Printf.sprintf
             "Desim.Engine.Livelock: %d events fired at t=%d ps without the \
              clock moving (%d still pending)"
             stall_limit clock pending)
    | _ -> None)

(* The one livelock rule: no run is too long, but a run whose clock
   stops moving is stuck. Every event due at the current clock counts;
   the next event that moves the clock resets the count. *)
let step t =
  let q = t.q in
  if q.size = 0 then false
  else begin
    if q.heap.(0).time > q.clock then q.stalled <- 0
    else if q.stalled >= stall_limit then
      raise (Livelock { clock = q.clock; pending = q.size })
    else q.stalled <- q.stalled + 1;
    let ev = pop q in
    q.clock <- ev.time;
    ev.action ();
    true
  end

let run ?until t =
  let q = t.q in
  let limit = Option.value until ~default:max_int in
  while q.size > 0 && q.heap.(0).time <= limit do
    ignore (step t)
  done;
  match until with
  | Some u when u > q.clock ->
      q.clock <- u;
      q.stalled <- 0
  | _ -> ()

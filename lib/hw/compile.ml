(* Compiled cycle-accurate simulator: the Levelize.t array specialized at
   create time into one closure per node over dense slot-indexed value
   arrays. Signals of width <= 62 live in a plain int array (OCaml's
   63-bit int, masked, so the stored value is always the canonical
   non-negative bitvector); wider signals fall back to Bits.t limbs. The
   evaluation model is Cyclesim's: settle (dependencies always resolve
   to lower slots), then latch — registers read-before-write,
   synchronous memory reads latch the pre-write contents, memory writes
   commit last.

   Evaluation is change-driven (compile.mli lists what queues a slot):
   settle re-evaluates only queued slots, and a slot whose value comes
   out unchanged queues nothing. *)

open Signal

let fast_width = 62
let mask_of w = if w >= 62 then max_int else (1 lsl w) - 1

type mem_store = M_fast of int array | M_wide of Bits.t array

type mem = {
  store : mem_store;
  readers : int array; (* slots of the memory's asynchronous reads *)
}

(* Slots queued for re-evaluation, bucketed by level. A level's queue
   lives in [queue] from that level's first slot on (a level never holds
   more slots than its slice), so draining levels in order evaluates
   every slot after its dependencies, and [dirty] queues a slot at most
   once. *)
type pending = {
  consumers : int array array; (* per slot: combinational consumer slots *)
  level : int array; (* per slot *)
  base : int array; (* per level: first slot of its slice *)
  qlen : int array; (* per level: slots queued *)
  queue : int array;
  dirty : bool array;
  mutable count : int; (* slots queued over all levels *)
}

let enqueue p s =
  if not p.dirty.(s) then begin
    p.dirty.(s) <- true;
    let l = p.level.(s) in
    p.queue.(p.base.(l) + p.qlen.(l)) <- s;
    p.qlen.(l) <- p.qlen.(l) + 1;
    p.count <- p.count + 1
  end

let enqueue_all p slots =
  for i = 0 to Array.length slots - 1 do
    enqueue p slots.(i)
  done

(* slot [s] took a new value: queue its consumers *)
let changed p s = enqueue_all p p.consumers.(s)

(* store a source value (input, register, sync read), propagating only
   an actual change *)
let set_fast p ivals s v =
  if v <> ivals.(s) then begin
    ivals.(s) <- v;
    changed p s
  end

let set_wide p wvals s v =
  let old = wvals.(s) in
  if not (v == old || Bits.equal v old) then begin
    wvals.(s) <- v;
    changed p s
  end

type t = {
  lv : Levelize.t;
  widths : int array; (* per-slot signal width *)
  fast : bool array; (* per-slot: value lives in [ivals]? *)
  ivals : int array; (* settled values, single-word slots *)
  wvals : Bits.t array; (* settled values, wide slots *)
  prog : (unit -> unit) array; (* per slot: evaluate it (sources: no-op) *)
  latch : (unit -> unit) array; (* buffer next reg/sync values *)
  commit : (unit -> unit) array; (* mem writes, then reg/sync state *)
  pend : pending;
  in_slots : (string, int list) Hashtbl.t; (* input name -> its slots *)
  out_slots : (string, int) Hashtbl.t;
  mems : (int, mem) Hashtbl.t; (* mem uid -> contents and readers *)
  mutable cycle : int;
}

let bits_of_fast ~width v = Bits.of_int ~width v

let create circuit =
  let lv = Levelize.of_circuit circuit in
  let nodes = Levelize.nodes lv in
  let n = Array.length nodes in
  let widths = Array.map (fun nd -> width nd.Levelize.n_signal) nodes in
  let fast = Array.map (fun w -> w <= fast_width) widths in
  let ivals = Array.make n 0 in
  let wvals =
    Array.init n (fun i -> if fast.(i) then Bits.zero 0 else Bits.zero widths.(i))
  in
  let consumers = Array.make n [] in
  let readers = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      let s = nd.Levelize.n_slot in
      Array.iter (fun d -> consumers.(d) <- s :: consumers.(d)) nd.Levelize.n_deps;
      match kind nd.Levelize.n_signal with
      | Mem_read_async (mm, _) ->
          Hashtbl.replace readers (mem_uid mm)
            (s :: Option.value ~default:[] (Hashtbl.find_opt readers (mem_uid mm)))
      | _ -> ())
    nodes;
  let n_levels = Levelize.n_levels lv in
  let p =
    {
      consumers = Array.map Array.of_list consumers;
      level = Array.map (fun nd -> nd.Levelize.n_level) nodes;
      base = Array.init n_levels (fun l -> fst (Levelize.level_slice lv l));
      qlen = Array.make n_levels 0;
      queue = Array.make n 0;
      dirty = Array.make n false;
      count = 0;
    }
  in
  let mems = Hashtbl.create 8 in
  List.iter
    (fun m ->
      Hashtbl.add mems (mem_uid m)
        {
          store =
            (if mem_width m <= fast_width then M_fast (Array.make (mem_size m) 0)
             else M_wide (Array.make (mem_size m) (Bits.zero (mem_width m))));
          readers =
            Array.of_list
              (Option.value ~default:[] (Hashtbl.find_opt readers (mem_uid m)));
        })
    (Circuit.memories circuit);
  (* exact for widths <= 62 after canonicalization *)
  let to_fast b = Bits.to_int_trunc b in
  let read_int slot =
    if fast.(slot) then fun () -> ivals.(slot)
    else fun () -> Bits.to_int_trunc wvals.(slot)
  in
  let read_bits slot =
    if fast.(slot) then
      let w = widths.(slot) in
      fun () -> bits_of_fast ~width:w ivals.(slot)
    else fun () -> wvals.(slot)
  in
  let prog = Array.make n ignore in
  let latches = ref [] in
  let commits = ref [] in
  let in_slots = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      let g = nd.Levelize.n_signal in
      let s = nd.Levelize.n_slot in
      let deps = nd.Levelize.n_deps in
      let w = widths.(s) in
      let m = mask_of w in
      (* every combinational slot starts queued: the first settle
         evaluates the whole netlist *)
      let emit f =
        prog.(s) <- f;
        enqueue p s
      in
      match kind g with
      | Const b -> if fast.(s) then ivals.(s) <- to_fast b else wvals.(s) <- b
      | Input name ->
          Hashtbl.replace in_slots name
            (s :: Option.value ~default:[] (Hashtbl.find_opt in_slots name))
      | Wire r -> (
          match !r with
          | None ->
              invalid_arg
                ("Hw.Compile.create: unconnected wire: " ^ Circuit.describe g)
          | Some _ ->
              let d = deps.(0) in
              if fast.(s) then emit (fun () -> ivals.(s) <- ivals.(d))
              else emit (fun () -> wvals.(s) <- wvals.(d)))
      | Op2 (op, _, _) ->
          let a = deps.(0) and b = deps.(1) in
          if fast.(a) then (
            match op with
            | Add -> emit (fun () -> ivals.(s) <- (ivals.(a) + ivals.(b)) land m)
            | Sub -> emit (fun () -> ivals.(s) <- (ivals.(a) - ivals.(b)) land m)
            | Mul -> emit (fun () -> ivals.(s) <- ivals.(a) * ivals.(b) land m)
            | And -> emit (fun () -> ivals.(s) <- ivals.(a) land ivals.(b))
            | Or -> emit (fun () -> ivals.(s) <- ivals.(a) lor ivals.(b))
            | Xor -> emit (fun () -> ivals.(s) <- ivals.(a) lxor ivals.(b))
            | Eq ->
                emit (fun () ->
                    ivals.(s) <- (if ivals.(a) = ivals.(b) then 1 else 0))
            | Lt ->
                emit (fun () ->
                    ivals.(s) <- (if ivals.(a) < ivals.(b) then 1 else 0)))
          else (
            match op with
            | Add -> emit (fun () -> wvals.(s) <- Bits.add wvals.(a) wvals.(b))
            | Sub -> emit (fun () -> wvals.(s) <- Bits.sub wvals.(a) wvals.(b))
            | Mul -> emit (fun () -> wvals.(s) <- Bits.mul wvals.(a) wvals.(b))
            | And ->
                emit (fun () -> wvals.(s) <- Bits.logand wvals.(a) wvals.(b))
            | Or -> emit (fun () -> wvals.(s) <- Bits.logor wvals.(a) wvals.(b))
            | Xor ->
                emit (fun () -> wvals.(s) <- Bits.logxor wvals.(a) wvals.(b))
            | Eq ->
                emit (fun () ->
                    ivals.(s) <- (if Bits.equal wvals.(a) wvals.(b) then 1 else 0))
            | Lt ->
                emit (fun () ->
                    ivals.(s) <- (if Bits.lt wvals.(a) wvals.(b) then 1 else 0)))
      | Not _ ->
          let a = deps.(0) in
          if fast.(s) then
            emit (fun () -> ivals.(s) <- Stdlib.lnot ivals.(a) land m)
          else emit (fun () -> wvals.(s) <- Bits.lognot wvals.(a))
      | Shift (dir, k, _) -> (
          let a = deps.(0) in
          if fast.(s) then
            if k = 0 then emit (fun () -> ivals.(s) <- ivals.(a))
            else if k >= w then (
              match dir with
              | Sll | Srl -> emit (fun () -> ivals.(s) <- 0)
              | Sra ->
                  let sign_bit = 1 lsl (w - 1) in
                  emit (fun () ->
                      ivals.(s) <-
                        (if ivals.(a) land sign_bit <> 0 then m else 0)))
            else
              match dir with
              | Sll -> emit (fun () -> ivals.(s) <- ivals.(a) lsl k land m)
              | Srl -> emit (fun () -> ivals.(s) <- ivals.(a) lsr k)
              | Sra ->
                  (* sign-extend into the 63-bit word, shift, re-mask *)
                  let up = 63 - w in
                  emit (fun () ->
                      ivals.(s) <- (ivals.(a) lsl up) asr (up + k) land m)
          else
            match dir with
            | Sll -> emit (fun () -> wvals.(s) <- Bits.shift_left wvals.(a) k)
            | Srl -> emit (fun () -> wvals.(s) <- Bits.shift_right wvals.(a) k)
            | Sra ->
                emit (fun () -> wvals.(s) <- Bits.shift_right_arith wvals.(a) k))
      | Mux _ ->
          let sel = deps.(0) in
          let cases = Array.sub deps 1 (Array.length deps - 1) in
          let nc = Array.length cases in
          if fast.(s) then
            if nc = 2 && fast.(sel) && widths.(sel) = 1 then (
              let c0 = cases.(0) and c1 = cases.(1) in
              emit (fun () ->
                  ivals.(s) <- (if ivals.(sel) = 0 then ivals.(c0) else ivals.(c1))))
            else
              let read_sel = read_int sel in
              emit (fun () ->
                  let i = read_sel () in
                  ivals.(s) <- ivals.(cases.(if i >= nc then nc - 1 else i)))
          else
            let read_sel = read_int sel in
            emit (fun () ->
                let i = read_sel () in
                wvals.(s) <- wvals.(cases.(if i >= nc then nc - 1 else i)))
      | Select (hi, lo, _) ->
          let a = deps.(0) in
          if fast.(s) then
            if fast.(a) then emit (fun () -> ivals.(s) <- ivals.(a) lsr lo land m)
            else emit (fun () -> ivals.(s) <- Bits.extract_int wvals.(a) ~lo ~width:w)
          else emit (fun () -> wvals.(s) <- Bits.slice wvals.(a) ~hi ~lo)
      | Concat _ ->
          if fast.(s) then (
            (* head of the list = most-significant bits *)
            let k = Array.length deps in
            let shifts = Array.make k 0 in
            let off = ref 0 in
            for i = k - 1 downto 0 do
              shifts.(i) <- !off;
              off := !off + widths.(deps.(i))
            done;
            emit (fun () ->
                let v = ref 0 in
                for i = 0 to k - 1 do
                  v := !v lor (ivals.(deps.(i)) lsl shifts.(i))
                done;
                ivals.(s) <- !v))
          else
            let getters = List.map read_bits (Array.to_list deps) in
            emit (fun () ->
                wvals.(s) <- Bits.concat_list (List.map (fun f -> f ()) getters))
      | Mem_read_async (mm, _) ->
          let read_addr = read_int deps.(0) in
          let size = mem_size mm in
          (match (Hashtbl.find mems (mem_uid mm)).store with
          | M_fast arr ->
              emit (fun () ->
                  let a = read_addr () in
                  ivals.(s) <- (if a < size then arr.(a) else 0))
          | M_wide arr ->
              let z = Bits.zero (mem_width mm) in
              emit (fun () ->
                  let a = read_addr () in
                  wvals.(s) <- (if a < size then arr.(a) else z)))
      | Reg spec ->
          let ds = Levelize.slot_of lv spec.d in
          let enabled =
            match spec.enable with
            | None -> fun () -> true
            | Some e ->
                let es = Levelize.slot_of lv e in
                fun () -> ivals.(es) <> 0
          in
          let cleared =
            match spec.clear with
            | None -> fun () -> false
            | Some c ->
                let cs = Levelize.slot_of lv c in
                fun () -> ivals.(cs) <> 0
          in
          if fast.(s) then (
            ivals.(s) <- to_fast spec.init;
            let init_i = to_fast spec.init in
            let pend = ref 0 and armed = ref false in
            latches :=
              (fun () ->
                if cleared () then (pend := init_i; armed := true)
                else if enabled () then (pend := ivals.(ds); armed := true)
                else armed := false)
              :: !latches;
            commits :=
              (fun () -> if !armed then set_fast p ivals s !pend) :: !commits)
          else (
            wvals.(s) <- spec.init;
            let pend = ref spec.init and armed = ref false in
            latches :=
              (fun () ->
                if cleared () then (pend := spec.init; armed := true)
                else if enabled () then (pend := wvals.(ds); armed := true)
                else armed := false)
              :: !latches;
            commits :=
              (fun () -> if !armed then set_wide p wvals s !pend) :: !commits)
      | Mem_read_sync (mm, addr, enable) -> (
          let read_addr =
            let as_ = Levelize.slot_of lv addr in
            read_int as_
          in
          let es = Levelize.slot_of lv enable in
          let size = mem_size mm in
          match (Hashtbl.find mems (mem_uid mm)).store with
          | M_fast arr ->
              let pend = ref 0 and armed = ref false in
              latches :=
                (fun () ->
                  if ivals.(es) <> 0 then (
                    let a = read_addr () in
                    pend := (if a < size then arr.(a) else 0);
                    armed := true)
                  else armed := false)
                :: !latches;
              commits :=
                (fun () -> if !armed then set_fast p ivals s !pend) :: !commits
          | M_wide arr ->
              let z = Bits.zero (mem_width mm) in
              let pend = ref z and armed = ref false in
              latches :=
                (fun () ->
                  if ivals.(es) <> 0 then (
                    pend := (let a = read_addr () in
                             if a < size then arr.(a) else z);
                    armed := true)
                  else armed := false)
                :: !latches;
              commits :=
                (fun () -> if !armed then set_wide p wvals s !pend) :: !commits))
    nodes;
  (* memory write ports commit after every reg/sync next is buffered but
     before state commits — read-first order, last port wins per address;
     a write that changes a word queues the memory's asynchronous reads *)
  let mem_commits = ref [] in
  List.iter
    (fun mm ->
      let { store; readers } = Hashtbl.find mems (mem_uid mm) in
      let size = mem_size mm in
      List.iter
        (fun wp ->
          let es = Levelize.slot_of lv wp.wp_enable in
          let read_addr = read_int (Levelize.slot_of lv wp.wp_addr) in
          let dsl = Levelize.slot_of lv wp.wp_data in
          match store with
          | M_fast arr ->
              mem_commits :=
                (fun () ->
                  if ivals.(es) <> 0 then
                    let a = read_addr () in
                    if a < size && arr.(a) <> ivals.(dsl) then begin
                      arr.(a) <- ivals.(dsl);
                      enqueue_all p readers
                    end)
                :: !mem_commits
          | M_wide arr ->
              mem_commits :=
                (fun () ->
                  if ivals.(es) <> 0 then
                    let a = read_addr () in
                    if a < size && not (Bits.equal arr.(a) wvals.(dsl)) then begin
                      arr.(a) <- wvals.(dsl);
                      enqueue_all p readers
                    end)
                :: !mem_commits)
        (mem_write_ports mm))
    (Circuit.memories circuit);
  let out_slots = Hashtbl.create 8 in
  List.iter
    (fun (name, sg) ->
      (* the first binding of a name wins, as with List.assoc *)
      if not (Hashtbl.mem out_slots name) then
        Hashtbl.add out_slots name (Levelize.slot_of lv sg))
    (Circuit.outputs circuit);
  {
    lv;
    widths;
    fast;
    ivals;
    wvals;
    prog;
    latch = Array.of_list (List.rev !latches);
    commit = Array.of_list (List.rev !mem_commits @ List.rev !commits);
    pend = p;
    in_slots;
    out_slots;
    mems;
    cycle = 0;
  }

(* drain the queue level by level; a level's queue cannot grow while it
   is drained, since every consumer sits at a higher level *)
let settle t =
  let p = t.pend in
  let l = ref 0 in
  while p.count > 0 do
    let lvl = !l in
    let first = p.base.(lvl) and k = p.qlen.(lvl) in
    for i = first to first + k - 1 do
      let s = p.queue.(i) in
      p.dirty.(s) <- false;
      if t.fast.(s) then begin
        let old = t.ivals.(s) in
        t.prog.(s) ();
        if t.ivals.(s) <> old then changed p s
      end
      else begin
        let old = t.wvals.(s) in
        t.prog.(s) ();
        let v = t.wvals.(s) in
        if not (v == old || Bits.equal v old) then changed p s
      end
    done;
    p.qlen.(lvl) <- 0;
    p.count <- p.count - k;
    incr l
  done

let step t =
  settle t;
  let l = t.latch in
  for i = 0 to Array.length l - 1 do
    l.(i) ()
  done;
  let c = t.commit in
  for i = 0 to Array.length c - 1 do
    c.(i) ()
  done;
  t.cycle <- t.cycle + 1

let set_input t name v =
  match Hashtbl.find_opt t.in_slots name with
  | None -> raise Not_found
  | Some slots ->
      let w = t.widths.(List.hd slots) in
      if Bits.width v <> w then
        invalid_arg
          (Printf.sprintf "Compile.set_input %s: width %d, expected %d" name
             (Bits.width v) w);
      List.iter
        (fun s ->
          if t.fast.(s) then set_fast t.pend t.ivals s (Bits.to_int_trunc v)
          else set_wide t.pend t.wvals s v)
        slots

let set_input_int t name v =
  match Hashtbl.find_opt t.in_slots name with
  | None -> raise Not_found
  | Some slots ->
      set_input t name (Bits.of_int ~width:t.widths.(List.hd slots) v)

let value_of_slot t s =
  if t.fast.(s) then bits_of_fast ~width:t.widths.(s) t.ivals.(s)
  else t.wvals.(s)

let output t name =
  settle t;
  value_of_slot t (Hashtbl.find t.out_slots name)

let output_int t name =
  settle t;
  let s = Hashtbl.find t.out_slots name in
  if t.fast.(s) then t.ivals.(s) else Bits.to_int t.wvals.(s)

let peek t s =
  settle t;
  value_of_slot t (Levelize.slot_of t.lv s)

let cycle t = t.cycle

let read_memory t m addr =
  let { store; _ } = Hashtbl.find t.mems (mem_uid m) in
  if addr < 0 || addr >= mem_size m then invalid_arg "read_memory: range";
  match store with
  | M_fast arr -> bits_of_fast ~width:(mem_width m) arr.(addr)
  | M_wide arr -> arr.(addr)

let write_memory t m addr v =
  let { store; readers } = Hashtbl.find t.mems (mem_uid m) in
  if addr < 0 || addr >= mem_size m then invalid_arg "write_memory: range";
  if Bits.width v <> mem_width m then invalid_arg "write_memory: width";
  match store with
  | M_fast arr ->
      let v = Bits.to_int_trunc v in
      if arr.(addr) <> v then begin
        arr.(addr) <- v;
        enqueue_all t.pend readers
      end
  | M_wide arr ->
      if not (Bits.equal arr.(addr) v) then begin
        arr.(addr) <- v;
        enqueue_all t.pend readers
      end

(* Compiled cycle-accurate simulator: the Levelize.t array specialized at
   create time into one closure per node over dense slot-indexed value
   arrays. Signals of width <= 62 live in a plain int array (OCaml's
   63-bit int, masked, so the stored value is always the canonical
   non-negative bitvector); wider signals fall back to Bits.t limbs. The
   evaluation model is Cyclesim's: settle (dependencies always resolve
   to lower slots), then latch — registers read-before-write,
   synchronous memory reads latch the pre-write contents, memory writes
   commit last.

   Evaluation is change-driven, in settle and at the clock edge alike
   (compile.mli lists what queues a slot or marks a sequential element):
   settle re-evaluates only queued slots, a slot whose value comes out
   unchanged queues nothing, and an edge latches only the registers and
   synchronous reads whose inputs changed since the last edge. *)

open Signal

let fast_width = 62
let mask_of w = if w >= 62 then max_int else (1 lsl w) - 1

type mem_store = M_fast of int array | M_wide of Bits.t array

type mem = {
  store : mem_store;
  readers : int array; (* slots of the memory's asynchronous reads *)
  sync_readers : int array; (* sequential elements: its synchronous reads *)
}

(* Slots queued for re-evaluation, bucketed by level. A level's queue
   lives in [queue] from that level's first slot on (a level never holds
   more slots than its slice), so draining levels in order evaluates
   every slot after its dependencies, and [dirty] queues a slot at most
   once. Sequential elements (registers and synchronous reads, numbered
   in slot order) whose inputs changed are marked for the next edge. *)
type pending = {
  consumers : int array array; (* per slot: combinational consumers, once each *)
  seq_consumers : int array array; (* per slot: sequential elements reading it *)
  level : int array; (* per slot *)
  base : int array; (* per level: first slot of its slice *)
  qlen : int array; (* per level: slots queued *)
  queue : int array;
  dirty : bool array;
  mutable count : int; (* slots queued over all levels *)
  marked : bool array; (* per sequential element *)
  edge : int array; (* the marked elements, [n_marked] of them *)
  mutable n_marked : int;
}

(* Every slot and element index below comes from the tables built at
   [create] (a port handle's slots too: [set], [set_int], [get] and
   [get_int] refuse a handle of another simulator), so the queue
   operations skip the bounds checks. *)
let[@inline] enqueue p s =
  if not (Array.unsafe_get p.dirty s) then begin
    Array.unsafe_set p.dirty s true;
    let l = Array.unsafe_get p.level s in
    let k = Array.unsafe_get p.qlen l in
    Array.unsafe_set p.queue (Array.unsafe_get p.base l + k) s;
    Array.unsafe_set p.qlen l (k + 1);
    p.count <- p.count + 1
  end

let[@inline] mark p e =
  if not (Array.unsafe_get p.marked e) then begin
    Array.unsafe_set p.marked e true;
    Array.unsafe_set p.edge p.n_marked e;
    p.n_marked <- p.n_marked + 1
  end

let enqueue_all p slots =
  for i = 0 to Array.length slots - 1 do
    enqueue p (Array.unsafe_get slots i)
  done

let mark_all p elems =
  for i = 0 to Array.length elems - 1 do
    mark p (Array.unsafe_get elems i)
  done

(* slot [s] took a new value: queue its consumers, mark its readers *)
let changed p s =
  enqueue_all p (Array.unsafe_get p.consumers s);
  mark_all p (Array.unsafe_get p.seq_consumers s)

(* a memory word changed: its asynchronous reads re-evaluate, its
   synchronous reads re-latch at the next edge *)
let mem_changed p { readers; sync_readers; _ } =
  enqueue_all p readers;
  mark_all p sync_readers

(* store a source value (input, register, sync read), propagating only
   an actual change *)
let set_fast p ivals s v =
  if v <> Array.unsafe_get ivals s then begin
    Array.unsafe_set ivals s v;
    changed p s
  end

let set_wide p wvals s v =
  let old = Array.unsafe_get wvals s in
  if not (v == old || Bits.equal v old) then begin
    Array.unsafe_set wvals s v;
    changed p s
  end

(* A handle records the simulator that resolved it by that simulator's
   [pending] record, allocated once per [create]: its slots index the
   value arrays unchecked, so a handle of another simulator is refused
   first. *)
type in_port = {
  ip_owner : pending;
  ip_name : string;
  ip_slots : int array; (* one per Input node of that name *)
  ip_width : int;
  ip_fast : bool;
  ip_mask : int;
}

type out_port = {
  op_owner : pending;
  op_name : string;
  op_slot : int;
  op_fast : bool;
}

type t = {
  lv : Levelize.t;
  widths : int array; (* per-slot signal width *)
  fast : bool array; (* per-slot: value lives in [ivals]? *)
  fused : bool array; (* per-slot: inside a fused sign extension *)
  ivals : int array; (* settled values, single-word slots *)
  wvals : Bits.t array; (* settled values, wide slots *)
  prog : (unit -> unit) array; (* per slot: evaluate it (sources: no-op) *)
  latch : (unit -> unit) array; (* per sequential element: buffer its next value *)
  commit : (unit -> unit) array; (* per sequential element: store it *)
  fire : int array; (* the elements latched at the current edge *)
  writes : (unit -> unit) array; (* memory write ports, in order *)
  pend : pending;
  in_ports : (string, in_port) Hashtbl.t;
  out_ports : (string, out_port) Hashtbl.t;
  mems : (int, mem) Hashtbl.t; (* mem uid -> contents and readers *)
  mutable cycle : int;
}

let bits_of_fast ~width v = Bits.of_int ~width v

(* [s] is [concat [repeat (msb src) k; src]], the shape {!Signal.sext}
   builds, when the msb select and the repeat feed nothing else: then
   [Some (select, repeat, src)] *)
let sext_shape nodes is_output s =
  let nd = nodes.(s) in
  match kind nd.Levelize.n_signal with
  | Concat [ _; _ ] -> (
      let r = nd.Levelize.n_deps.(0) and src = nd.Levelize.n_deps.(1) in
      let rn = nodes.(r) in
      match kind rn.Levelize.n_signal with
      | Concat _ -> (
          let m = rn.Levelize.n_deps.(0) in
          let mn = nodes.(m) in
          let top = width nodes.(src).Levelize.n_signal - 1 in
          match kind mn.Levelize.n_signal with
          | Select (hi, lo, _)
            when hi = top && lo = top
                 && mn.Levelize.n_deps.(0) = src
                 && Array.for_all (( = ) m) rn.Levelize.n_deps
                 && mn.Levelize.n_fanout = Array.length rn.Levelize.n_deps
                 && rn.Levelize.n_fanout = 1
                 && (not is_output.(m))
                 && not is_output.(r) ->
              Some (m, r, src)
          | _ -> None)
      | _ -> None)
  | _ -> None

let dedup l = List.sort_uniq compare l

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
  let out_list =
    List.map (fun (name, sg) -> (name, Levelize.slot_of lv sg))
      (Circuit.outputs circuit)
  in
  let is_output = Array.make n false in
  List.iter (fun (_, s) -> is_output.(s) <- true) out_list;
  (* fused sign extensions: the outer concat reads [src] directly; the
     msb select and the repeat are evaluated only by [peek] *)
  let fused = Array.make n false in
  let sext_src = Array.make n (-1) in
  for s = 0 to n - 1 do
    match sext_shape nodes is_output s with
    | Some (m, r, src) ->
        fused.(m) <- true;
        fused.(r) <- true;
        sext_src.(s) <- src
    | None -> ()
  done;
  let consumers = Array.make n [] in
  let seq_consumers = Array.make n [] in
  let readers = Hashtbl.create 8 in
  let sync_readers = Hashtbl.create 8 in
  let add_reader tbl m x =
    Hashtbl.replace tbl (mem_uid m)
      (x :: Option.value ~default:[] (Hashtbl.find_opt tbl (mem_uid m)))
  in
  (* sequential elements, numbered in slot order *)
  let n_seq = ref 0 in
  let seq_index = Array.make n (-1) in
  Array.iter
    (fun nd ->
      let g = nd.Levelize.n_signal and s = nd.Levelize.n_slot in
      if not fused.(s) then
        Array.iter (fun d -> consumers.(d) <- s :: consumers.(d)) nd.Levelize.n_deps;
      (* a register or sync read reads its [seq_deps] at the edge *)
      let element () =
        let e = !n_seq in
        incr n_seq;
        seq_index.(s) <- e;
        List.iter
          (fun i ->
            let d = Levelize.slot_of lv i in
            seq_consumers.(d) <- e :: seq_consumers.(d))
          (Circuit.seq_deps g);
        e
      in
      match kind g with
      | Mem_read_async (mm, _) -> add_reader readers mm s
      | Reg _ -> ignore (element ())
      | Mem_read_sync (mm, _, _) -> add_reader sync_readers mm (element ())
      | _ -> ())
    nodes;
  let n_seq = !n_seq in
  let n_levels = Levelize.n_levels lv in
  let p =
    {
      consumers = Array.map (fun l -> Array.of_list (dedup l)) consumers;
      seq_consumers = Array.map (fun l -> Array.of_list (dedup l)) seq_consumers;
      level = Array.map (fun nd -> nd.Levelize.n_level) nodes;
      base = Array.init n_levels (fun l -> fst (Levelize.level_slice lv l));
      qlen = Array.make n_levels 0;
      queue = Array.make n 0;
      dirty = Array.make n false;
      count = 0;
      (* every element starts marked: the first edge latches them all *)
      marked = Array.make n_seq true;
      edge = Array.init n_seq Fun.id;
      n_marked = n_seq;
    }
  in
  let mems = Hashtbl.create 8 in
  let readers_of tbl m =
    Array.of_list (dedup (Option.value ~default:[] (Hashtbl.find_opt tbl (mem_uid m))))
  in
  List.iter
    (fun m ->
      Hashtbl.add mems (mem_uid m)
        {
          store =
            (if mem_width m <= fast_width then M_fast (Array.make (mem_size m) 0)
             else M_wide (Array.make (mem_size m) (Bits.zero (mem_width m))));
          readers = readers_of readers m;
          sync_readers = readers_of sync_readers m;
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
  let latch = Array.make n_seq ignore in
  let commit = Array.make n_seq ignore in
  Array.iter
    (fun nd ->
      let g = nd.Levelize.n_signal in
      let s = nd.Levelize.n_slot in
      let deps = nd.Levelize.n_deps in
      let w = widths.(s) in
      let m = mask_of w in
      (* every combinational slot outside a fused sign extension starts
         queued: the first settle evaluates the whole netlist *)
      let emit f =
        prog.(s) <- f;
        if not fused.(s) then enqueue p s
      in
      match kind g with
      | Const b -> if fast.(s) then ivals.(s) <- to_fast b else wvals.(s) <- b
      | Input _ -> ()
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
      | Concat _ when sext_src.(s) >= 0 ->
          (* a fused sign extension of [src] to [w] bits *)
          let src = sext_src.(s) in
          let ws = widths.(src) in
          if fast.(s) then
            let up = 63 - ws in
            emit (fun () -> ivals.(s) <- (ivals.(src) lsl up) asr up land m)
          else if fast.(src) then
            emit (fun () ->
                wvals.(s) <- Bits.sext (bits_of_fast ~width:ws ivals.(src)) w)
          else emit (fun () -> wvals.(s) <- Bits.sext wvals.(src) w)
      | Concat _ ->
          let k = Array.length deps in
          if fast.(s) then (
            (* head of the list = most-significant bits *)
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
          else if Array.for_all (fun d -> fast.(d)) deps then (
            (* narrow parts: gather them and write the limbs in one go *)
            let part_widths = Array.map (fun d -> widths.(d)) deps in
            let parts = Array.make k 0 in
            emit (fun () ->
                for i = 0 to k - 1 do
                  parts.(i) <- ivals.(deps.(i))
                done;
                wvals.(s) <- Bits.concat_ints ~widths:part_widths parts))
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
          let e = seq_index.(s) in
          let ds = Levelize.slot_of lv spec.d in
          let enabled =
            match spec.enable with
            | None -> fun () -> true
            | Some en ->
                let es = Levelize.slot_of lv en in
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
            latch.(e) <-
              (fun () ->
                if cleared () then (pend := init_i; armed := true)
                else if enabled () then (pend := ivals.(ds); armed := true)
                else armed := false);
            commit.(e) <- (fun () -> if !armed then set_fast p ivals s !pend))
          else (
            wvals.(s) <- spec.init;
            let pend = ref spec.init and armed = ref false in
            latch.(e) <-
              (fun () ->
                if cleared () then (pend := spec.init; armed := true)
                else if enabled () then (pend := wvals.(ds); armed := true)
                else armed := false);
            commit.(e) <- (fun () -> if !armed then set_wide p wvals s !pend))
      | Mem_read_sync (mm, addr, enable) -> (
          let e = seq_index.(s) in
          let read_addr = read_int (Levelize.slot_of lv addr) in
          let es = Levelize.slot_of lv enable in
          let size = mem_size mm in
          match (Hashtbl.find mems (mem_uid mm)).store with
          | M_fast arr ->
              let pend = ref 0 and armed = ref false in
              latch.(e) <-
                (fun () ->
                  if ivals.(es) <> 0 then (
                    let a = read_addr () in
                    pend := (if a < size then arr.(a) else 0);
                    armed := true)
                  else armed := false);
              commit.(e) <- (fun () -> if !armed then set_fast p ivals s !pend)
          | M_wide arr ->
              let z = Bits.zero (mem_width mm) in
              let pend = ref z and armed = ref false in
              latch.(e) <-
                (fun () ->
                  if ivals.(es) <> 0 then (
                    pend := (let a = read_addr () in
                             if a < size then arr.(a) else z);
                    armed := true)
                  else armed := false);
              commit.(e) <- (fun () -> if !armed then set_wide p wvals s !pend)))
    nodes;
  (* memory write ports run at every edge, after every marked element
     has latched and before any commits — read-first order, last port
     wins per address; a write that changes a word queues the memory's
     asynchronous reads and marks its synchronous ones *)
  let writes = ref [] in
  List.iter
    (fun mm ->
      let mem = Hashtbl.find mems (mem_uid mm) in
      let size = mem_size mm in
      List.iter
        (fun wp ->
          let es = Levelize.slot_of lv wp.wp_enable in
          let read_addr = read_int (Levelize.slot_of lv wp.wp_addr) in
          let dsl = Levelize.slot_of lv wp.wp_data in
          match mem.store with
          | M_fast arr ->
              writes :=
                (fun () ->
                  if ivals.(es) <> 0 then
                    let a = read_addr () in
                    if a < size && arr.(a) <> ivals.(dsl) then begin
                      arr.(a) <- ivals.(dsl);
                      mem_changed p mem
                    end)
                :: !writes
          | M_wide arr ->
              writes :=
                (fun () ->
                  if ivals.(es) <> 0 then
                    let a = read_addr () in
                    if a < size && not (Bits.equal arr.(a) wvals.(dsl)) then begin
                      arr.(a) <- wvals.(dsl);
                      mem_changed p mem
                    end)
                :: !writes)
        (mem_write_ports mm))
    (Circuit.memories circuit);
  let in_ports = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match kind nd.Levelize.n_signal with
      | Input name ->
          let s = nd.Levelize.n_slot in
          let slots =
            match Hashtbl.find_opt in_ports name with
            | Some ip -> Array.append ip.ip_slots [| s |]
            | None -> [| s |]
          in
          Hashtbl.replace in_ports name
            {
              ip_owner = p;
              ip_name = name;
              ip_slots = slots;
              ip_width = widths.(s);
              ip_fast = fast.(s);
              ip_mask = mask_of widths.(s);
            }
      | _ -> ())
    nodes;
  let out_ports = Hashtbl.create 8 in
  List.iter
    (fun (name, s) ->
      (* the first binding of a name wins, as with List.assoc *)
      if not (Hashtbl.mem out_ports name) then
        Hashtbl.add out_ports name
          { op_owner = p; op_name = name; op_slot = s; op_fast = fast.(s) })
    out_list;
  {
    lv;
    widths;
    fast;
    fused;
    ivals;
    wvals;
    prog;
    latch;
    commit;
    fire = Array.make n_seq 0;
    writes = Array.of_list (List.rev !writes);
    pend = p;
    in_ports;
    out_ports;
    mems;
    cycle = 0;
  }

(* drain the queue level by level; a level's queue cannot grow while it
   is drained, since every consumer sits at a higher level *)
let settle t =
  let p = t.pend in
  let fast = t.fast and ivals = t.ivals and wvals = t.wvals and prog = t.prog in
  let l = ref 0 in
  while p.count > 0 do
    let lvl = !l in
    let first = Array.unsafe_get p.base lvl
    and k = Array.unsafe_get p.qlen lvl in
    for i = first to first + k - 1 do
      let s = Array.unsafe_get p.queue i in
      Array.unsafe_set p.dirty s false;
      if Array.unsafe_get fast s then begin
        let old = Array.unsafe_get ivals s in
        (Array.unsafe_get prog s) ();
        if Array.unsafe_get ivals s <> old then changed p s
      end
      else begin
        let old = Array.unsafe_get wvals s in
        (Array.unsafe_get prog s) ();
        let v = Array.unsafe_get wvals s in
        if not (v == old || Bits.equal v old) then changed p s
      end
    done;
    Array.unsafe_set p.qlen lvl 0;
    p.count <- p.count - k;
    incr l
  done

(* latch the marked elements, run every write port, then commit what
   latched; whatever the commits and writes change is marked afresh for
   the next edge *)
let step t =
  settle t;
  let p = t.pend and fire = t.fire in
  let k = p.n_marked in
  for i = 0 to k - 1 do
    let e = Array.unsafe_get p.edge i in
    Array.unsafe_set p.marked e false;
    Array.unsafe_set fire i e;
    (Array.unsafe_get t.latch e) ()
  done;
  p.n_marked <- 0;
  let w = t.writes in
  for i = 0 to Array.length w - 1 do
    (Array.unsafe_get w i) ()
  done;
  for i = 0 to k - 1 do
    (Array.unsafe_get t.commit (Array.unsafe_get fire i)) ()
  done;
  t.cycle <- t.cycle + 1

let in_port t name = Hashtbl.find t.in_ports name
let out_port t name = Hashtbl.find t.out_ports name

let foreign what name =
  invalid_arg
    (Printf.sprintf "Compile.%s %s: the port belongs to another simulator" what
       name)

let set t ip v =
  if ip.ip_owner != t.pend then foreign "set" ip.ip_name;
  if Bits.width v <> ip.ip_width then
    invalid_arg
      (Printf.sprintf "Compile.set_input %s: width %d, expected %d" ip.ip_name
         (Bits.width v) ip.ip_width);
  let slots = ip.ip_slots in
  if ip.ip_fast then begin
    let x = Bits.to_int_trunc v in
    for i = 0 to Array.length slots - 1 do
      set_fast t.pend t.ivals slots.(i) x
    done
  end
  else
    for i = 0 to Array.length slots - 1 do
      set_wide t.pend t.wvals slots.(i) v
    done

let set_int t ip v =
  if ip.ip_owner != t.pend then foreign "set_int" ip.ip_name;
  if v < 0 then
    invalid_arg (Printf.sprintf "Compile.set_input_int %s: negative value" ip.ip_name);
  if ip.ip_fast then begin
    let x = v land ip.ip_mask and slots = ip.ip_slots in
    for i = 0 to Array.length slots - 1 do
      set_fast t.pend t.ivals slots.(i) x
    done
  end
  else set t ip (Bits.of_int ~width:ip.ip_width v)

let value_of_slot t s =
  if t.fast.(s) then bits_of_fast ~width:t.widths.(s) t.ivals.(s)
  else t.wvals.(s)

let get t op =
  if op.op_owner != t.pend then foreign "get" op.op_name;
  settle t;
  value_of_slot t op.op_slot

let get_int t op =
  if op.op_owner != t.pend then foreign "get_int" op.op_name;
  settle t;
  if op.op_fast then Array.unsafe_get t.ivals op.op_slot
  else Bits.to_int_trunc t.wvals.(op.op_slot)

let set_input t name v = set t (in_port t name) v
let set_input_int t name v = set_int t (in_port t name) v
let output t name = get t (out_port t name)

let output_int t name =
  let op = out_port t name in
  if op.op_fast then get_int t op else Bits.to_int (get t op)

(* a fused slot holds no settled value: evaluate it from its inputs,
   the fused ones first *)
let rec refresh t s =
  if t.fused.(s) then begin
    Array.iter (refresh t) (Levelize.nodes t.lv).(s).Levelize.n_deps;
    t.prog.(s) ()
  end

let peek t g =
  settle t;
  let s = Levelize.slot_of t.lv g in
  refresh t s;
  value_of_slot t s

let cycle t = t.cycle

let read_memory t m addr =
  let { store; _ } = Hashtbl.find t.mems (mem_uid m) in
  if addr < 0 || addr >= mem_size m then invalid_arg "read_memory: range";
  match store with
  | M_fast arr -> bits_of_fast ~width:(mem_width m) arr.(addr)
  | M_wide arr -> arr.(addr)

let write_memory t m addr v =
  let mem = Hashtbl.find t.mems (mem_uid m) in
  if addr < 0 || addr >= mem_size m then invalid_arg "write_memory: range";
  if Bits.width v <> mem_width m then invalid_arg "write_memory: width";
  match mem.store with
  | M_fast arr ->
      let v = Bits.to_int_trunc v in
      if arr.(addr) <> v then begin
        arr.(addr) <- v;
        mem_changed t.pend mem
      end
  | M_wide arr ->
      if not (Bits.equal arr.(addr) v) then begin
        arr.(addr) <- v;
        mem_changed t.pend mem
      end

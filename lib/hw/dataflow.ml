open Signal

type aval = Bot | Const of Bits.t | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Const x, Const y -> if Bits.equal x y then Const x else Top

let aval_equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Const x, Const y -> Bits.equal x y
  | _ -> false

let pp_aval fmt = function
  | Bot -> Format.pp_print_string fmt "bot"
  | Top -> Format.pp_print_string fmt "top"
  | Const b -> Bits.pp fmt b

type t = {
  lv : Levelize.t;
  values : aval array; (* by slot *)
  xs : bool array; (* by slot *)
  mem_x : (int, bool) Hashtbl.t; (* mem uid -> contents may be X *)
}

let is_high b = not (Bits.is_zero b)

(* may/must views of a 1-bit control given its abstract value; [None]
   control means the given default *)
let may_be_high av = match av with Some (Const b) -> is_high b | _ -> true
let must_be_high av = match av with Some (Const b) -> is_high b | _ -> false

(* ---- constant lattice ---- *)

(* Transfer function for one combinational node. Must be at least as
   strong as every fold in [Opt.constant_fold] — [crosscheck] enforces
   this differentially. *)
let transfer ~state s value_of =
  match kind s with
  | Const b -> Const b
  | Input _ -> Top
  | Reg _ | Mem_read_sync _ -> state s
  | Mem_read_async _ -> Top (* contents not tracked *)
  | Wire r -> (
      match !r with Some d -> value_of d | None -> Top)
  | Not a -> (
      match value_of a with
      | Const b -> Const (Bits.lognot b)
      | _ -> Top)
  | Shift (dir, n, a) -> (
      match value_of a with
      | Const b ->
          Const
            (match dir with
            | Sll -> Bits.shift_left b n
            | Srl -> Bits.shift_right b n
            | Sra -> Bits.shift_right_arith b n)
      | _ -> Top)
  | Select (hi, lo, a) -> (
      match value_of a with
      | Const b -> Const (Bits.slice b ~hi ~lo)
      | _ -> Top)
  | Concat parts ->
      let avs = List.map value_of parts in
      if List.for_all (function Const _ -> true | _ -> false) avs then
        Const
          (Bits.concat_list
             (List.map (function Const b -> b | _ -> assert false) avs))
      else Top
  | Mux (sel, cases) -> (
      match value_of sel with
      | Const csel ->
          (* same clamp as Opt / Cyclesim: out of range picks last *)
          value_of
            (List.nth cases
               (min (Bits.to_int_trunc csel) (List.length cases - 1)))
      | _ ->
          (* stronger than Opt: all arms equal is still a constant *)
          List.fold_left (fun acc c -> join acc (value_of c)) Bot cases)
  | Op2 (op, a, b) -> (
      let va = value_of a and vb = value_of b in
      let zero () = Const (Bits.zero (width s)) in
      match (va, vb) with
      | Const ca, Const cb -> Const (Opt.eval_op2 op ca cb)
      | Const ca, _ when op = Add && Bits.is_zero ca -> vb
      | _, Const cb when (op = Add || op = Sub) && Bits.is_zero cb -> va
      | Const ca, _ when (op = And || op = Mul) && Bits.is_zero ca -> zero ()
      | _, Const cb when (op = And || op = Mul) && Bits.is_zero cb -> zero ()
      | Const ca, _ when op = Or && Bits.is_zero ca -> vb
      | _, Const cb when op = Or && Bits.is_zero cb -> va
      | _ -> Top)

let const_fixpoint lv =
  let nodes = Levelize.nodes lv in
  let n = Array.length nodes in
  let values = Array.make n Bot in
  (* state, by slot, for Reg and Mem_read_sync nodes *)
  let state = Array.make n Bot in
  Array.iter
    (fun nd ->
      match kind nd.Levelize.n_signal with
      | Reg { init; _ } -> state.(nd.Levelize.n_slot) <- Const init
      | Mem_read_sync _ ->
          state.(nd.Levelize.n_slot) <-
            Const (Bits.zero (width nd.Levelize.n_signal))
      | _ -> ())
    nodes;
  let value_of s = values.(Levelize.slot_of lv s) in
  let comb_pass () =
    Array.iter
      (fun nd ->
        values.(nd.Levelize.n_slot) <-
          transfer
            ~state:(fun s -> state.(Levelize.slot_of lv s))
            nd.Levelize.n_signal value_of)
      nodes
  in
  let av_opt = Option.map value_of in
  (* one cycle-boundary update; returns true when any state rose *)
  let boundary () =
    let changed = ref false in
    Array.iter
      (fun nd ->
        let slot = nd.Levelize.n_slot in
        let update v =
          let v' = join state.(slot) v in
          if not (aval_equal v' state.(slot)) then begin
            state.(slot) <- v';
            changed := true
          end
        in
        match kind nd.Levelize.n_signal with
        | Reg { d; enable; clear; init } ->
            let must_clear = must_be_high (av_opt clear) && clear <> None in
            let may_clear = clear <> None && may_be_high (av_opt clear) in
            let may_latch =
              (not must_clear)
              && (match enable with None -> true | Some e -> (
                    match value_of e with Const b -> is_high b | _ -> true))
            in
            if may_clear then update (Const init);
            if may_latch then update (value_of d)
        | Mem_read_sync (_, _, enable) ->
            if may_be_high (Some (value_of enable)) then update Top
        | _ -> ())
      nodes;
    !changed
  in
  comb_pass ();
  while boundary () do
    comb_pass ()
  done;
  (values, state)

(* ---- X lattice (uses the settled constant values as a mask) ---- *)

let x_fixpoint lv values =
  let nodes = Levelize.nodes lv in
  let n = Array.length nodes in
  let xs = Array.make n false in
  let xstate = Array.make n false in
  let mem_x = Hashtbl.create 8 in
  List.iter
    (fun m ->
      (* a memory the circuit never writes can never be initialized *)
      Hashtbl.replace mem_x (mem_uid m) (mem_write_ports m = []))
    (Circuit.memories (Levelize.circuit lv));
  let x_of s = xs.(Levelize.slot_of lv s) in
  let av_of s = values.(Levelize.slot_of lv s) in
  let comb_pass () =
    Array.iter
      (fun nd ->
        let s = nd.Levelize.n_signal in
        let x =
          match kind s with
          | Const _ | Input _ -> false
          | Reg _ | Mem_read_sync _ -> xstate.(nd.Levelize.n_slot)
          | Mem_read_async (m, addr) ->
              Hashtbl.find mem_x (mem_uid m) || x_of addr
          | Mux (sel, cases) -> (
              match av_of sel with
              | Const csel ->
                  x_of
                    (List.nth cases
                       (min (Bits.to_int_trunc csel) (List.length cases - 1)))
              | _ -> x_of sel || List.exists x_of cases)
          | _ -> List.exists x_of (Circuit.comb_deps s)
        in
        (* mask: a provably constant value is defined whatever its
           operands were *)
        let x = x && not (match av_of s with Const _ -> true | _ -> false) in
        xs.(nd.Levelize.n_slot) <- x)
      nodes
  in
  let boundary () =
    let changed = ref false in
    let raise_mem m =
      if not (Hashtbl.find mem_x (mem_uid m)) then begin
        Hashtbl.replace mem_x (mem_uid m) true;
        changed := true
      end
    in
    List.iter
      (fun m ->
        if
          List.exists
            (fun wp ->
              x_of wp.wp_data || x_of wp.wp_addr || x_of wp.wp_enable)
            (mem_write_ports m)
        then raise_mem m)
      (Circuit.memories (Levelize.circuit lv));
    Array.iter
      (fun nd ->
        let slot = nd.Levelize.n_slot in
        let raise_state x =
          if x && not xstate.(slot) then begin
            xstate.(slot) <- true;
            changed := true
          end
        in
        match kind nd.Levelize.n_signal with
        | Reg { d; enable; clear; _ } ->
            (* clear-to-init yields a defined value; an X enable/clear
               only picks between branches the join already covers *)
            let must_clear =
              match Option.map av_of clear with
              | Some (Const b) -> is_high b
              | Some _ -> false
              | None -> false
            in
            let may_latch =
              (not must_clear)
              &&
              match Option.map av_of enable with
              | Some (Const b) -> is_high b
              | _ -> true
            in
            if may_latch then raise_state (x_of d)
        | Mem_read_sync (m, addr, enable) ->
            let may_read =
              match av_of enable with Const b -> is_high b | _ -> true
            in
            if may_read then
              raise_state (Hashtbl.find mem_x (mem_uid m) || x_of addr)
        | _ -> ())
      nodes;
    !changed
  in
  comb_pass ();
  while boundary () do
    comb_pass ()
  done;
  (xs, mem_x)

let run lv =
  let values, _state = const_fixpoint lv in
  let xs, mem_x = x_fixpoint lv values in
  { lv; values; xs; mem_x }

let value_of t s = t.values.(Levelize.slot_of t.lv s)
let is_x t s = t.xs.(Levelize.slot_of t.lv s)

(* ---- lint rules ---- *)

let warn ?loc ?hint rule msg =
  Diag.make ?loc ?hint ~rule ~severity:Diag.Warning msg

let info ?loc ?hint rule msg = Diag.make ?loc ?hint ~rule ~severity:Diag.Info msg

let read_before_init t =
  let c = Levelize.circuit t.lv in
  let outs =
    List.filter_map
      (fun (n, s) ->
        if is_x t s then
          Some
            (warn
               ~loc:(Printf.sprintf "output %s" n)
               ~hint:
                 "initialize the memory through a write port (or gate the \
                  read until after initialization)"
               "read-before-init"
               "an uninitialized memory read may reach this output (X under \
                4-state semantics)")
        else None)
      (Circuit.outputs c)
  in
  let wens =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun wp ->
            if is_x t wp.wp_enable then
              Some
                (warn
                   ~loc:(Printf.sprintf "memory %s" (mem_name m))
                   ~hint:
                     "an X write enable can corrupt arbitrary addresses in \
                      synthesis vs simulation"
                   "read-before-init"
                   "a write-port enable derives from an uninitialized memory \
                    read")
            else None)
          (mem_write_ports m))
      (Circuit.memories c)
  in
  outs @ wens

let const_output t =
  List.filter_map
    (fun (n, s) ->
      match (kind s, value_of t s) with
      | Const _, _ -> None (* a literal constant output is deliberate *)
      | _, Const b ->
          Some
            (warn
               ~loc:(Printf.sprintf "output %s" n)
               ~hint:"replace the logic cone with a constant, or check the \
                      feeding logic"
               "const-output"
               (Format.asprintf
                  "provably %a on every cycle for every input" Bits.pp b))
      | _ -> None)
    (Circuit.outputs (Levelize.circuit t.lv))

let dead_mux_arm t =
  List.filter_map
    (fun s ->
      match kind s with
      | Mux (sel, cases) when (match kind sel with Const _ -> false | _ -> true)
        -> (
          match value_of t sel with
          | Const csel ->
              let n = List.length cases in
              let live = min (Bits.to_int_trunc csel) (n - 1) in
              Some
                (warn ~loc:(Circuit.describe s)
                   ~hint:"drop the mux and use the live arm directly"
                   "dead-mux-arm"
                   (Printf.sprintf
                      "selector is provably %d on every cycle; the other %d \
                       arm(s) are unreachable"
                      live (n - 1)))
          | _ -> None)
      | _ -> None)
    (Circuit.signals_in_topo_order (Levelize.circuit t.lv))

let redundant_reset t =
  List.filter_map
    (fun r ->
      match kind r with
      | Reg { d; clear = Some _; init; _ } -> (
          match value_of t d with
          | Const b when Bits.equal b init ->
              Some
                (info ~loc:(Circuit.describe r)
                   ~hint:"drop the clear term: clearing and latching load \
                          the same value"
                   "redundant-reset"
                   (Format.asprintf
                      "data input is provably %a, equal to the reset value"
                      Bits.pp b))
          | _ -> None)
      | _ -> None)
    (Circuit.registers (Levelize.circuit t.lv))

let lint t =
  read_before_init t @ const_output t @ dead_mux_arm t @ redundant_reset t

let crosscheck t ~folded =
  let c = Levelize.circuit t.lv in
  List.filter_map
    (fun ((n, s), (n', s')) ->
      assert (n = n');
      match kind s' with
      | Const b -> (
          match value_of t s with
          | Const b' when Bits.equal b b' -> None
          | av ->
              Some
                (Diag.make
                   ~loc:(Printf.sprintf "output %s" n)
                   ~hint:
                     "a transfer function in Hw.Dataflow or a fold in Hw.Opt \
                      mis-evaluates a node; this is a bug in the analyses, \
                      not in the design"
                   ~rule:"dataflow-opt-divergence" ~severity:Diag.Error
                   (Format.asprintf
                      "Hw.Opt folds this output to %a but dataflow computes \
                       %a"
                      Bits.pp b pp_aval av)))
      | _ -> None)
    (List.combine (Circuit.outputs c) (Circuit.outputs folded))

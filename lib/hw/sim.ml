module type S = sig
  type t

  val create : Circuit.t -> t
  val set_input : t -> string -> Bits.t -> unit
  val set_input_int : t -> string -> int -> unit
  val output : t -> string -> Bits.t
  val output_int : t -> string -> int
  val peek : t -> Signal.t -> Bits.t
  val settle : t -> unit
  val step : t -> unit
  val cycle : t -> int
  val read_memory : t -> Signal.Mem.mem -> int -> Bits.t
  val write_memory : t -> Signal.Mem.mem -> int -> Bits.t -> unit
end

(* both backends must keep conforming to the common interface *)
module _ : S = Cyclesim
module _ : S = Compile

type backend = Interpreter | Compiled

let backend_name = function Interpreter -> "interpreter" | Compiled -> "compiled"

let backend_of_string = function
  | "interpreter" -> Some Interpreter
  | "compiled" -> Some Compiled
  | _ -> None

type t = I of Cyclesim.t | C of Compile.t

let create ?(backend = Compiled) circuit =
  match backend with
  | Interpreter -> I (Cyclesim.create circuit)
  | Compiled -> C (Compile.create circuit)

let backend = function I _ -> Interpreter | C _ -> Compiled

let set_input t n v =
  match t with I s -> Cyclesim.set_input s n v | C s -> Compile.set_input s n v

let set_input_int t n v =
  match t with
  | I s -> Cyclesim.set_input_int s n v
  | C s -> Compile.set_input_int s n v

let output t n =
  match t with I s -> Cyclesim.output s n | C s -> Compile.output s n

let output_int t n =
  match t with I s -> Cyclesim.output_int s n | C s -> Compile.output_int s n

let peek t s = match t with I i -> Cyclesim.peek i s | C c -> Compile.peek c s
let settle = function I s -> Cyclesim.settle s | C s -> Compile.settle s
let step = function I s -> Cyclesim.step s | C s -> Compile.step s
let cycle = function I s -> Cyclesim.cycle s | C s -> Compile.cycle s

let read_memory t m a =
  match t with
  | I s -> Cyclesim.read_memory s m a
  | C s -> Compile.read_memory s m a

let write_memory t m a v =
  match t with
  | I s -> Cyclesim.write_memory s m a v
  | C s -> Compile.write_memory s m a v

let random_bits st width =
  let rec chunks w =
    if w <= 16 then [ Bits.of_int ~width:w (Random.State.int st (1 lsl w)) ]
    else Bits.of_int ~width:16 (Random.State.int st 65536) :: chunks (w - 16)
  in
  Bits.concat_list (chunks width)

let lockstep circuit ~cycles ~stimulus =
  let si = create ~backend:Interpreter circuit
  and sc = create ~backend:Compiled circuit in
  let exception Diverged of string in
  let agree a b where =
    if not (Bits.equal a b) then raise (Diverged (where ()))
  in
  match
    for cyc = 1 to cycles do
      List.iter
        (fun (n, v) ->
          set_input si n v;
          set_input sc n v)
        (stimulus cyc);
      List.iter
        (fun (n, _) ->
          agree (output si n) (output sc n) (fun () ->
              Printf.sprintf "cycle %d, output %s" cyc n))
        (Circuit.outputs circuit);
      List.iter
        (fun m ->
          for a = 0 to Signal.mem_size m - 1 do
            agree (read_memory si m a) (read_memory sc m a) (fun () ->
                Printf.sprintf "cycle %d, memory %s[%d]" cyc
                  (Signal.mem_name m) a)
          done)
        (Circuit.memories circuit);
      step si;
      step sc
    done
  with
  | () -> Ok ()
  | exception Diverged where -> Error where

type counter = { mutable c : int }

let counter () = { c = 0 }
let incr ?(by = 1) t = t.c <- t.c + by
let count t = t.c

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  total : float;
}

type series = {
  mutable n : int;
  mutable total : float;
  mutable mn : float;
  mutable mx : float;
  mutable samples : float array; (* first [n] slots are live *)
  mutable sorted : bool; (* the live samples are in ascending order *)
}

let series () =
  {
    n = 0;
    total = 0.;
    mn = infinity;
    mx = neg_infinity;
    samples = [||];
    sorted = true;
  }

let observe s x =
  if s.n = Array.length s.samples then begin
    let grown = Array.make (max 16 (2 * s.n)) 0. in
    Array.blit s.samples 0 grown 0 s.n;
    s.samples <- grown
  end;
  s.samples.(s.n) <- x;
  s.n <- s.n + 1;
  s.sorted <- false;
  s.total <- s.total +. x;
  if x < s.mn then s.mn <- x;
  if x > s.mx then s.mx <- x

let summarize_opt s =
  if s.n = 0 then None
  else
    Some
      {
        n = s.n;
        mean = s.total /. float_of_int s.n;
        min = s.mn;
        max = s.mx;
        total = s.total;
      }

let quantile_opt s ~q =
  if s.n = 0 then None
  else begin
    if not s.sorted then begin
      let a = Array.sub s.samples 0 s.n in
      Array.sort Float.compare a;
      Array.blit a 0 s.samples 0 s.n;
      s.sorted <- true
    end;
    let a = s.samples in
    let q = Float.max 0. (Float.min 1. q) in
    (* linear interpolation between closest ranks *)
    let pos = q *. float_of_int (s.n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    Some
      (if i + 1 < s.n then a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
       else a.(i))
  end

type histogram = { bucket_width : float; table : (int, int) Hashtbl.t }

let histogram ~bucket_width =
  if bucket_width <= 0. then invalid_arg "Stats.histogram: bad bucket width";
  { bucket_width; table = Hashtbl.create 16 }

let record h x =
  let b = int_of_float (Float.floor (x /. h.bucket_width)) in
  let cur = Option.value ~default:0 (Hashtbl.find_opt h.table b) in
  Hashtbl.replace h.table b (cur + 1)

(* Every bucket between the observed min and max is emitted, including
   empty ones, so exported histograms are plot-ready (no gap teeth). *)
let buckets h =
  if Hashtbl.length h.table = 0 then []
  else begin
    let bmin = Hashtbl.fold (fun b _ acc -> min b acc) h.table max_int in
    let bmax = Hashtbl.fold (fun b _ acc -> max b acc) h.table min_int in
    List.init
      (bmax - bmin + 1)
      (fun i ->
        let b = bmin + i in
        ( float_of_int b *. h.bucket_width,
          Option.value ~default:0 (Hashtbl.find_opt h.table b) ))
  end

let[@inline] mix x =
  let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let string_hash s =
  let n = String.length s and h = ref (String.length s) in
  for w = 0 to (n / 8) - 1 do
    h := mix (!h + Int64.to_int (String.get_int64_le s (8 * w)))
  done;
  for i = n land lnot 7 to n - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  mix !h

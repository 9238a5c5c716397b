type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make ~x0 ~y0 ~x1 ~y1 =
  if x0 > x1 || y0 > y1 then invalid_arg "Rect.make: inverted bounds";
  { x0; y0; x1; y1 }

let width r = r.x1 - r.x0 + 1
let height r = r.y1 - r.y0 + 1
let area r = width r * height r
let contains r ~x ~y = r.x0 <= x && x <= r.x1 && r.y0 <= y && y <= r.y1

let contains_interior r ~x ~y =
  r.x0 < x && x < r.x1 && r.y0 < y && y < r.y1

let overlaps a b =
  Int.max a.x0 b.x0 <= Int.min a.x1 b.x1
  && Int.max a.y0 b.y0 <= Int.min a.y1 b.y1

let hull a b =
  {
    x0 = Int.min a.x0 b.x0;
    y0 = Int.min a.y0 b.y0;
    x1 = Int.max a.x1 b.x1;
    y1 = Int.max a.y1 b.y1;
  }

let pp ppf r = Format.fprintf ppf "[%d..%d]x[%d..%d]" r.x0 r.x1 r.y0 r.y1

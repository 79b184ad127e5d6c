//! Scalar ALU semantics of the IR: the single source of truth for what
//! every operation computes on canonical 64-bit register values. Used by
//! the simulator's interpreter and by the optimizer's constant folder, so
//! folded constants are bit-identical to runtime results.

use crate::ir::{BinIr, ScalarTy, UnIr};

/// Canonicalizes a value just loaded from memory (`raw` holds the low
/// `ty` bytes, zero-extended).
pub fn canon_load(ty: ScalarTy, raw: u64) -> u64 {
    match ty {
        ScalarTy::I32 => (raw as u32 as i32) as i64 as u64,
        _ => raw,
    }
}

fn canon_i32(v: i32) -> u64 {
    v as i64 as u64
}

fn canon_u32(v: u32) -> u64 {
    u64::from(v)
}

/// Executes a binary operation under `ty`. Integer division by zero
/// yields 0 (PTX-like saturation instead of a fault).
#[inline]
pub fn bin(op: BinIr, ty: ScalarTy, a: u64, b: u64) -> u64 {
    match ty {
        ScalarTy::I32 => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            match op {
                BinIr::Add => canon_i32(x.wrapping_add(y)),
                BinIr::Sub => canon_i32(x.wrapping_sub(y)),
                BinIr::Mul => canon_i32(x.wrapping_mul(y)),
                BinIr::Div => canon_i32(if y == 0 { 0 } else { x.wrapping_div(y) }),
                BinIr::Rem => canon_i32(if y == 0 { 0 } else { x.wrapping_rem(y) }),
                BinIr::Shl => canon_i32(if (y as u32) >= 32 {
                    0
                } else {
                    x.wrapping_shl(y as u32)
                }),
                BinIr::Shr => canon_i32(if (y as u32) >= 32 {
                    if x < 0 {
                        -1
                    } else {
                        0
                    }
                } else {
                    x.wrapping_shr(y as u32)
                }),
                BinIr::And => canon_i32(x & y),
                BinIr::Or => canon_i32(x | y),
                BinIr::Xor => canon_i32(x ^ y),
                BinIr::Min => canon_i32(x.min(y)),
                BinIr::Max => canon_i32(x.max(y)),
                BinIr::Lt => u64::from(x < y),
                BinIr::Le => u64::from(x <= y),
                BinIr::Gt => u64::from(x > y),
                BinIr::Ge => u64::from(x >= y),
                BinIr::Eq => u64::from(x == y),
                BinIr::Ne => u64::from(x != y),
            }
        }
        ScalarTy::U32 => {
            let (x, y) = (a as u32, b as u32);
            match op {
                BinIr::Add => canon_u32(x.wrapping_add(y)),
                BinIr::Sub => canon_u32(x.wrapping_sub(y)),
                BinIr::Mul => canon_u32(x.wrapping_mul(y)),
                BinIr::Div => canon_u32(x.checked_div(y).unwrap_or(0)),
                BinIr::Rem => canon_u32(if y == 0 { 0 } else { x % y }),
                BinIr::Shl => canon_u32(if y >= 32 { 0 } else { x.wrapping_shl(y) }),
                BinIr::Shr => canon_u32(if y >= 32 { 0 } else { x.wrapping_shr(y) }),
                BinIr::And => canon_u32(x & y),
                BinIr::Or => canon_u32(x | y),
                BinIr::Xor => canon_u32(x ^ y),
                BinIr::Min => canon_u32(x.min(y)),
                BinIr::Max => canon_u32(x.max(y)),
                BinIr::Lt => u64::from(x < y),
                BinIr::Le => u64::from(x <= y),
                BinIr::Gt => u64::from(x > y),
                BinIr::Ge => u64::from(x >= y),
                BinIr::Eq => u64::from(x == y),
                BinIr::Ne => u64::from(x != y),
            }
        }
        ScalarTy::I64 => {
            let (x, y) = (a as i64, b as i64);
            match op {
                BinIr::Add => x.wrapping_add(y) as u64,
                BinIr::Sub => x.wrapping_sub(y) as u64,
                BinIr::Mul => x.wrapping_mul(y) as u64,
                BinIr::Div => (if y == 0 { 0 } else { x.wrapping_div(y) }) as u64,
                BinIr::Rem => (if y == 0 { 0 } else { x.wrapping_rem(y) }) as u64,
                BinIr::Shl => {
                    if (y as u64) >= 64 {
                        0
                    } else {
                        (x.wrapping_shl(y as u32)) as u64
                    }
                }
                BinIr::Shr => {
                    if (y as u64) >= 64 {
                        (if x < 0 { -1i64 } else { 0 }) as u64
                    } else {
                        (x.wrapping_shr(y as u32)) as u64
                    }
                }
                BinIr::And => (x & y) as u64,
                BinIr::Or => (x | y) as u64,
                BinIr::Xor => (x ^ y) as u64,
                BinIr::Min => x.min(y) as u64,
                BinIr::Max => x.max(y) as u64,
                BinIr::Lt => u64::from(x < y),
                BinIr::Le => u64::from(x <= y),
                BinIr::Gt => u64::from(x > y),
                BinIr::Ge => u64::from(x >= y),
                BinIr::Eq => u64::from(x == y),
                BinIr::Ne => u64::from(x != y),
            }
        }
        ScalarTy::U64 => {
            let (x, y) = (a, b);
            match op {
                BinIr::Add => x.wrapping_add(y),
                BinIr::Sub => x.wrapping_sub(y),
                BinIr::Mul => x.wrapping_mul(y),
                BinIr::Div => x.checked_div(y).unwrap_or(0),
                BinIr::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x % y
                    }
                }
                BinIr::Shl => {
                    if y >= 64 {
                        0
                    } else {
                        x.wrapping_shl(y as u32)
                    }
                }
                BinIr::Shr => {
                    if y >= 64 {
                        0
                    } else {
                        x.wrapping_shr(y as u32)
                    }
                }
                BinIr::And => x & y,
                BinIr::Or => x | y,
                BinIr::Xor => x ^ y,
                BinIr::Min => x.min(y),
                BinIr::Max => x.max(y),
                BinIr::Lt => u64::from(x < y),
                BinIr::Le => u64::from(x <= y),
                BinIr::Gt => u64::from(x > y),
                BinIr::Ge => u64::from(x >= y),
                BinIr::Eq => u64::from(x == y),
                BinIr::Ne => u64::from(x != y),
            }
        }
        ScalarTy::F32 => {
            let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
            let f = |v: f32| u64::from(v.to_bits());
            match op {
                BinIr::Add => f(x + y),
                BinIr::Sub => f(x - y),
                BinIr::Mul => f(x * y),
                BinIr::Div => f(x / y),
                BinIr::Rem => f(x % y),
                BinIr::Min => f(x.min(y)),
                BinIr::Max => f(x.max(y)),
                BinIr::Lt => u64::from(x < y),
                BinIr::Le => u64::from(x <= y),
                BinIr::Gt => u64::from(x > y),
                BinIr::Ge => u64::from(x >= y),
                BinIr::Eq => u64::from(x == y),
                BinIr::Ne => u64::from(x != y),
                other => panic!("operation {other:?} undefined on f32"),
            }
        }
        ScalarTy::F64 => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            let f = |v: f64| v.to_bits();
            match op {
                BinIr::Add => f(x + y),
                BinIr::Sub => f(x - y),
                BinIr::Mul => f(x * y),
                BinIr::Div => f(x / y),
                BinIr::Rem => f(x % y),
                BinIr::Min => f(x.min(y)),
                BinIr::Max => f(x.max(y)),
                BinIr::Lt => u64::from(x < y),
                BinIr::Le => u64::from(x <= y),
                BinIr::Gt => u64::from(x > y),
                BinIr::Ge => u64::from(x >= y),
                BinIr::Eq => u64::from(x == y),
                BinIr::Ne => u64::from(x != y),
                other => panic!("operation {other:?} undefined on f64"),
            }
        }
    }
}

/// Executes a unary operation under `ty`.
#[inline]
pub fn un(op: UnIr, ty: ScalarTy, a: u64) -> u64 {
    match op {
        UnIr::Not => u64::from(is_zero(ty, a)),
        UnIr::Neg => match ty {
            ScalarTy::I32 | ScalarTy::U32 => canon_i32((a as u32 as i32).wrapping_neg()),
            ScalarTy::I64 | ScalarTy::U64 => (a as i64).wrapping_neg() as u64,
            ScalarTy::F32 => u64::from((-f32::from_bits(a as u32)).to_bits()),
            ScalarTy::F64 => (-f64::from_bits(a)).to_bits(),
        },
        UnIr::BitNot => match ty {
            ScalarTy::I32 => canon_i32(!(a as u32 as i32)),
            ScalarTy::U32 => canon_u32(!(a as u32)),
            _ => !a,
        },
        UnIr::Abs => match ty {
            ScalarTy::I32 => canon_i32((a as u32 as i32).wrapping_abs()),
            ScalarTy::I64 => (a as i64).wrapping_abs() as u64,
            ScalarTy::F32 => u64::from(f32::from_bits(a as u32).abs().to_bits()),
            ScalarTy::F64 => f64::from_bits(a).abs().to_bits(),
            _ => a,
        },
        UnIr::Popc => match ty {
            ScalarTy::I32 | ScalarTy::U32 => u64::from((a as u32).count_ones()),
            _ => u64::from(a.count_ones()),
        },
        UnIr::Clz => match ty {
            ScalarTy::I32 | ScalarTy::U32 => u64::from((a as u32).leading_zeros()),
            _ => u64::from(a.leading_zeros()),
        },
        UnIr::Brev => match ty {
            ScalarTy::I32 | ScalarTy::U32 => u64::from((a as u32).reverse_bits()),
            _ => a.reverse_bits(),
        },
        UnIr::Sqrt | UnIr::Rsqrt | UnIr::Exp | UnIr::Log => match ty {
            ScalarTy::F32 => {
                let x = f32::from_bits(a as u32);
                let r = match op {
                    UnIr::Sqrt => x.sqrt(),
                    UnIr::Rsqrt => x.sqrt().recip(),
                    UnIr::Exp => x.exp(),
                    _ => x.ln(),
                };
                u64::from(r.to_bits())
            }
            ScalarTy::F64 => {
                let x = f64::from_bits(a);
                let r = match op {
                    UnIr::Sqrt => x.sqrt(),
                    UnIr::Rsqrt => x.sqrt().recip(),
                    UnIr::Exp => x.exp(),
                    _ => x.ln(),
                };
                r.to_bits()
            }
            other => panic!("special function on non-float type {other:?}"),
        },
    }
}

fn is_zero(ty: ScalarTy, a: u64) -> bool {
    match ty {
        ScalarTy::F32 => f32::from_bits(a as u32) == 0.0,
        ScalarTy::F64 => f64::from_bits(a) == 0.0,
        ScalarTy::I32 | ScalarTy::U32 => a as u32 == 0,
        _ => a == 0,
    }
}

/// Numeric conversion between scalar types.
#[inline]
pub fn cast(from: ScalarTy, to: ScalarTy, v: u64) -> u64 {
    // Decode to a wide intermediate.
    enum Wide {
        I(i64),
        U(u64),
        F(f64),
    }
    let wide = match from {
        ScalarTy::I32 => Wide::I(v as u32 as i32 as i64),
        ScalarTy::U32 => Wide::U(u64::from(v as u32)),
        ScalarTy::I64 => Wide::I(v as i64),
        ScalarTy::U64 => Wide::U(v),
        ScalarTy::F32 => Wide::F(f64::from(f32::from_bits(v as u32))),
        ScalarTy::F64 => Wide::F(f64::from_bits(v)),
    };
    match (wide, to) {
        (Wide::I(x), ScalarTy::I32) => canon_i32(x as i32),
        (Wide::I(x), ScalarTy::U32) => canon_u32(x as u32),
        (Wide::I(x), ScalarTy::I64) => x as u64,
        (Wide::I(x), ScalarTy::U64) => x as u64,
        (Wide::I(x), ScalarTy::F32) => u64::from((x as f32).to_bits()),
        (Wide::I(x), ScalarTy::F64) => (x as f64).to_bits(),
        (Wide::U(x), ScalarTy::I32) => canon_i32(x as i32),
        (Wide::U(x), ScalarTy::U32) => canon_u32(x as u32),
        (Wide::U(x), ScalarTy::I64) => x,
        (Wide::U(x), ScalarTy::U64) => x,
        (Wide::U(x), ScalarTy::F32) => u64::from((x as f32).to_bits()),
        (Wide::U(x), ScalarTy::F64) => (x as f64).to_bits(),
        (Wide::F(x), ScalarTy::I32) => canon_i32(x as i32),
        (Wide::F(x), ScalarTy::U32) => canon_u32(x as u32),
        (Wide::F(x), ScalarTy::I64) => (x as i64) as u64,
        (Wide::F(x), ScalarTy::U64) => x as u64,
        (Wide::F(x), ScalarTy::F32) => u64::from((x as f32).to_bits()),
        (Wide::F(x), ScalarTy::F64) => x.to_bits(),
    }
}

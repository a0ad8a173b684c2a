"""Walk the free massless scalar through every field-equation check.

For a candidate field the script reports the variational residual, the
current/source comparison, the closed-form comparison for the rank-4 object,
and the flux over growing probe boxes.  On a solution every number is zero;
off a solution the flux grows with the probe volume, which is the point of
running the boundary check on more than one box.
"""

from fractions import Fraction

from fvx import FieldSet, LagrangianSpec, ParamSurface, five_flux
from fvx import check_51, check_55, el_residual
from fvx.lagrange import J_form, K_form, Lambda_form, lagrangian_names
from fvx.polyfield import COORD_NAMES, Poly, format_poly, parse_poly

WAVE = LagrangianSpec(
    1,
    parse_poly("1/2 p0_0^2 - 1/2 p0_1^2 - 1/2 p0_2^2 - 1/2 p0_3^2", lagrangian_names(1)),
)


def cube(side: Fraction) -> ParamSurface:
    maps = tuple(Poly.variable(k, 4) for k in range(4))
    return ParamSurface(4, maps, tuple(((Fraction(0), side) for _ in range(4))))


def inspect(label: str, text: str) -> None:
    phi = FieldSet((parse_poly(text, COORD_NAMES),))
    residual = el_residual(WAVE, phi, 0)
    lam = Lambda_form(WAVE, phi, 0)
    print(f"{label}: phi = {text}")
    print(f"  residual                 {format_poly(residual, COORD_NAMES)}")
    print(f"  current matches source   {check_51(J_form(WAVE, phi, 0), K_form(WAVE, phi, 0))}")
    print(f"  closed rank-4 object     {check_55(lam)}")
    for side in (Fraction(1), Fraction(2), Fraction(3)):
        value = five_flux(lam, cube(side))
        print(f"  flux over side-{side} cube    {value}")
    print()


def main() -> None:
    print("free massless scalar, all checks exact")
    print()
    inspect("solution", "x0 x1")
    inspect("solution", "x1^2 + x2^2 - 2 x3^2")
    inspect("off shell", "x0^2")


if __name__ == "__main__":
    main()

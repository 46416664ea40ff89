module adaptivefl/bench

go 1.21

require adaptivefl v0.0.0

replace adaptivefl => ../
